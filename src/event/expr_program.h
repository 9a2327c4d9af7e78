#ifndef CEP2ASP_EVENT_EXPR_PROGRAM_H_
#define CEP2ASP_EVENT_EXPR_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "event/event.h"
#include "event/predicate.h"

namespace cep2asp {

/// Opcodes of the predicate/key bytecode. Every conjunction term is one
/// instruction that halts the program with `false` when the term fails;
/// key stores write the tuple's partition key as a side effect. Programs
/// are straight-line (no jumps other than the fail exits), so one linear
/// pass executes a whole fused filter→map prefix with no virtual calls, no
/// std::function and no evaluation stack.
enum class ExprOp : uint8_t {
  /// key := int64(GetAttribute(events[a], Attribute(b))); debug builds
  /// CEP2ASP_DCHECK the cast round-trips (non-integral key attributes are
  /// a plan bug — see W213)
  kStoreKeyAttr,
  /// key := key_pool[imm]  (exact int64, not squeezed through a double)
  kStoreKeyConst,
  /// halt returning true
  kHalt,
  /// halt returning false unless
  /// EvalCmp(attr(events[a], b), CmpOp(c), const_pool[imm])
  kCmpAttrConstFail,
  /// halt returning false unless
  /// EvalCmp(attr(events[a], b), CmpOp(c), attr(events[d], e))
  kCmpAttrAttrFail,
  /// like kCmpAttrAttrFail with const_pool[imm] added to the rhs
  kCmpAttrAttrOffFail,
};

/// One 12-byte instruction. Term opcodes use a/b = lhs (var, attr),
/// c = the CmpOp, d/e = rhs (var, attr), imm = a const-pool index;
/// kStoreKeyAttr uses a/b = (var, attr), kStoreKeyConst imm = a key-pool
/// index. The 32-bit `imm` means pool size never limits compilation.
struct ExprInsn {
  ExprOp op = ExprOp::kHalt;
  uint8_t a = 0;
  uint8_t b = 0;
  uint8_t c = 0;
  uint8_t d = 0;
  uint8_t e = 0;
  uint32_t imm = 0;
};
static_assert(sizeof(ExprInsn) == 12, "ExprInsn layout changed");

/// \brief Borrowed columnar (SoA) view a program executes against:
/// per-(event slot, attribute) contiguous double columns instead of
/// strided row-major tuples. Raw pointers only — the runtime's
/// ColumnarBatch produces one, but this layer stays free of runtime
/// dependencies.
///
/// `attr_cols[slot * kNumEventAttrs + attr]` points at `count` doubles
/// holding that attribute for every row. `keys` (may be null to skip key
/// stores) receives kStoreKey* side effects for rows whose mask is still
/// set. `mask` has `count` bytes and is fully (re)initialized by
/// RunColumnar.
struct ExprColumnarView {
  const double* const* attr_cols = nullptr;
  size_t num_slots = 0;
  int64_t* keys = nullptr;
  size_t count = 0;
  uint8_t* mask = nullptr;
};

/// \brief A compiled predicate / key-assignment: the "compile, don't
/// interpret" replacement for Predicate::EvalOnTuple + MapOperator key
/// lambdas on translator-generated stateless prefixes.
///
/// Compilation fails only on an event index above 255 (the 8-bit var
/// operand: a kPositional variable or a KeyByAttribute event index);
/// broadcast programs, which is everything the translator emits, always
/// compile. Execution semantics are bit-identical to the interpreter:
/// comparisons go through the shared EvalCmp, so NaN ordering matches
/// IEEE (all comparisons but != are false).
class ExprProgram {
 public:
  /// How predicate variable indices address the tuple's events.
  enum class VarMode : uint8_t {
    /// Every variable reads event 0 (Predicate::EvalOnEvent semantics —
    /// the per-type source filters).
    kBroadcast,
    /// Variable i reads event i (Predicate::EvalOnTuple semantics).
    kPositional,
  };

  ExprProgram() = default;

  /// Compiles a conjunction into a filter program, one term instruction
  /// per comparison, ending in kHalt (= pass).
  static ExprProgram Filter(const Predicate& pred, VarMode mode);

  /// Compiles key := events[event_index].attr.
  static ExprProgram KeyByAttribute(int event_index, Attribute attr);

  /// Compiles key := constant (kept as exact int64 in the key pool).
  static ExprProgram KeyByConstant(int64_t key);

  /// Fuses `first` then `second` into one program: first's kHalt is
  /// dropped, second's pool indices are rebased. A tuple failing first
  /// never reaches second — exactly the operator pipeline's semantics for
  /// a filter feeding a map.
  static ExprProgram Fuse(const ExprProgram& first, const ExprProgram& second);

  /// False when an event index overflowed its 8-bit operand; such a
  /// program must not be run.
  bool ok() const { return ok_; }

  /// True when the program writes the partition key.
  bool assigns_key() const;

  size_t num_instructions() const { return code_.size(); }
  bool empty() const { return code_.empty(); }

  /// Runs the program against the tuple's events; key stores mutate the
  /// tuple. Returns the filter verdict (true when no filter terms exist).
  bool Run(Tuple* tuple) const;

  /// Columnar execution: runs the program over SoA columns (see
  /// ExprColumnarView). Loop interchange: instead of dispatching every
  /// instruction per tuple, each term opcode becomes one tight loop over
  /// two contiguous double columns ANDing into the mask, which vectorizes
  /// (explicit SSE2/AVX2 kernels when built with CEP2ASP_SIMD,
  /// auto-vectorizable scalar loops otherwise).
  /// Comparison semantics are bit-identical to EvalCmp including IEEE NaN
  /// ordering (every comparison but != is false). Writes mask[0..count)
  /// and applies key stores to still-masked rows.
  void RunColumnar(const ExprColumnarView& view) const;

  /// Runs the filter portion against positional events without a tuple;
  /// key stores are skipped. For tests and join-condition reuse.
  bool EvalOnEvents(const SimpleEvent* events, size_t count) const;

  /// Disassembly, one instruction per line
  /// ("0: fail unless e0.value < 0.5" ...).
  std::string ToString() const;

  // --- introspection (verifier / analysis / tooling) -----------------------

  const std::vector<ExprInsn>& code() const { return code_; }
  const std::vector<double>& const_pool() const { return const_pool_; }
  const std::vector<int64_t>& key_pool() const { return key_pool_; }

  /// Assembles a program directly from raw encodings, bypassing the
  /// emitter. The result is NOT validated — that is the point: it feeds
  /// the verifier's mutation corpus and lets tooling reconstruct programs
  /// from serialized form. `ok()` is true regardless of content.
  static ExprProgram FromRaw(std::vector<ExprInsn> code,
                             std::vector<double> const_pool,
                             std::vector<int64_t> key_pool);

 private:
  uint32_t InternConst(double value);
  uint32_t InternKey(int64_t value);
  void EmitComparison(const Comparison& term, VarMode mode);
  void Fail() { ok_ = false; }

  std::vector<ExprInsn> code_;
  std::vector<double> const_pool_;
  std::vector<int64_t> key_pool_;
  bool ok_ = true;
};

}  // namespace cep2asp

#endif  // CEP2ASP_EVENT_EXPR_PROGRAM_H_
