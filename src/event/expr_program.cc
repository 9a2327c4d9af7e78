#include "event/expr_program.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"

// Explicit SIMD kernels for the columnar comparison loops: SSE2 is
// unconditional on x86-64, AVX2 is compiled with a per-function target
// attribute and selected at runtime via __builtin_cpu_supports, so no
// -mavx2 build flag is needed. CEP2ASP_SIMD (a CMake option) gates the
// whole block; without it the scalar loops below remain — they carry the
// same semantics and still auto-vectorize under -O3.
#if defined(CEP2ASP_SIMD) && defined(__x86_64__) && defined(__SSE2__) && \
    (defined(__GNUC__) || defined(__clang__))
#define CEP2ASP_EXPR_SIMD 1
#include <immintrin.h>
#else
#define CEP2ASP_EXPR_SIMD 0
#endif

namespace cep2asp {
namespace {

/// Builds a halt or key-store instruction (a/b operands + pool index).
ExprInsn KeyInsn(ExprOp op, uint8_t a, uint8_t b, uint32_t imm) {
  ExprInsn insn;
  insn.op = op;
  insn.a = a;
  insn.b = b;
  insn.imm = imm;
  return insn;
}

/// Builds a term instruction: lhs (var, attr), cmp, rhs (var, attr),
/// const-pool index.
ExprInsn TermInsn(ExprOp op, uint8_t lvar, uint8_t lattr, CmpOp cmp,
                  uint8_t rvar, uint8_t rattr, uint32_t imm) {
  ExprInsn insn;
  insn.op = op;
  insn.a = lvar;
  insn.b = lattr;
  insn.c = static_cast<uint8_t>(cmp);
  insn.d = rvar;
  insn.e = rattr;
  insn.imm = imm;
  return insn;
}

}  // namespace

uint32_t ExprProgram::InternConst(double value) {
  // Compare bit patterns, not values: NaN constants must intern too, and
  // comparing through uint64_t (rather than memcmp on doubles) keeps the
  // intent explicit for both readers and flp37-style lints.
  uint64_t value_bits = 0;
  std::memcpy(&value_bits, &value, sizeof(value_bits));
  for (size_t i = 0; i < const_pool_.size(); ++i) {
    uint64_t pool_bits = 0;
    std::memcpy(&pool_bits, &const_pool_[i], sizeof(pool_bits));
    if (pool_bits == value_bits) {
      return static_cast<uint32_t>(i);
    }
  }
  const_pool_.push_back(value);
  return static_cast<uint32_t>(const_pool_.size() - 1);
}

uint32_t ExprProgram::InternKey(int64_t value) {
  for (size_t i = 0; i < key_pool_.size(); ++i) {
    if (key_pool_[i] == value) return static_cast<uint32_t>(i);
  }
  key_pool_.push_back(value);
  return static_cast<uint32_t>(key_pool_.size() - 1);
}

void ExprProgram::EmitComparison(const Comparison& term, VarMode mode) {
  const auto var_of = [mode](int var) { return mode == VarMode::kBroadcast ? 0 : var; };
  const int lhs_var = var_of(term.lhs.var);
  if (lhs_var < 0 || lhs_var > 255) {
    Fail();
    return;
  }
  const uint8_t lvar = static_cast<uint8_t>(lhs_var);
  const uint8_t lattr = static_cast<uint8_t>(term.lhs.attr);
  if (term.rhs_is_attr) {
    const int rhs_var = var_of(term.rhs_attr.var);
    if (rhs_var < 0 || rhs_var > 255) {
      Fail();
      return;
    }
    const uint8_t rvar = static_cast<uint8_t>(rhs_var);
    const uint8_t rattr = static_cast<uint8_t>(term.rhs_attr.attr);
    if (term.rhs_offset != 0.0) {
      code_.push_back(TermInsn(ExprOp::kCmpAttrAttrOffFail, lvar, lattr,
                               term.op, rvar, rattr,
                               InternConst(term.rhs_offset)));
    } else {
      code_.push_back(TermInsn(ExprOp::kCmpAttrAttrFail, lvar, lattr, term.op,
                               rvar, rattr, 0));
    }
  } else {
    code_.push_back(TermInsn(ExprOp::kCmpAttrConstFail, lvar, lattr, term.op,
                             0, 0, InternConst(term.rhs_const)));
  }
}

ExprProgram ExprProgram::Filter(const Predicate& pred, VarMode mode) {
  ExprProgram out;
  for (const Comparison& term : pred.terms()) {
    out.EmitComparison(term, mode);
  }
  out.code_.push_back(KeyInsn(ExprOp::kHalt, 0, 0, 0));
  return out;
}

ExprProgram ExprProgram::KeyByAttribute(int event_index, Attribute attr) {
  ExprProgram out;
  if (event_index < 0 || event_index > 255) {
    out.Fail();
    return out;
  }
  out.code_.push_back(KeyInsn(ExprOp::kStoreKeyAttr,
                              static_cast<uint8_t>(event_index),
                              static_cast<uint8_t>(attr), 0));
  out.code_.push_back(KeyInsn(ExprOp::kHalt, 0, 0, 0));
  return out;
}

ExprProgram ExprProgram::KeyByConstant(int64_t key) {
  ExprProgram out;
  out.code_.push_back(
      KeyInsn(ExprOp::kStoreKeyConst, 0, 0, out.InternKey(key)));
  out.code_.push_back(KeyInsn(ExprOp::kHalt, 0, 0, 0));
  return out;
}

ExprProgram ExprProgram::FromRaw(std::vector<ExprInsn> code,
                                 std::vector<double> const_pool,
                                 std::vector<int64_t> key_pool) {
  ExprProgram out;
  out.code_ = std::move(code);
  out.const_pool_ = std::move(const_pool);
  out.key_pool_ = std::move(key_pool);
  return out;
}

ExprProgram ExprProgram::Fuse(const ExprProgram& first,
                              const ExprProgram& second) {
  ExprProgram out;
  out.ok_ = first.ok_ && second.ok_;
  out.const_pool_ = first.const_pool_;
  out.key_pool_ = first.key_pool_;
  out.code_ = first.code_;
  // Drop first's terminating kHalt; a failing term inside still exits
  // before second runs, which is exactly the pipeline's filter→map order.
  if (!out.code_.empty() && out.code_.back().op == ExprOp::kHalt) {
    out.code_.pop_back();
  }
  for (ExprInsn insn : second.code_) {
    switch (insn.op) {
      case ExprOp::kCmpAttrConstFail:
      case ExprOp::kCmpAttrAttrOffFail:
        insn.imm = out.InternConst(second.const_pool_[insn.imm]);
        break;
      case ExprOp::kStoreKeyConst:
        insn.imm = out.InternKey(second.key_pool_[insn.imm]);
        break;
      default:
        break;
    }
    out.code_.push_back(insn);
  }
  return out;
}

bool ExprProgram::assigns_key() const {
  for (const ExprInsn& insn : code_) {
    if (insn.op == ExprOp::kStoreKeyAttr || insn.op == ExprOp::kStoreKeyConst) {
      return true;
    }
  }
  return false;
}

/// The interpreter core. `tuple` is null when key stores must be skipped
/// (EvalOnEvents). Threaded dispatch (computed goto) under GCC/Clang: one
/// indirect jump per instruction instead of a loop + switch, the idiom
/// behind every fast bytecode VM. The portable switch fallback is
/// semantically identical.
static bool ExecProgram(const ExprInsn* pc, const double* const_pool,
                        const int64_t* key_pool, const SimpleEvent* events,
                        size_t count, Tuple* tuple) {
  (void)count;

#if defined(__GNUC__) || defined(__clang__)
  // Table order must match the ExprOp enumerator order.
  static const void* kDispatch[] = {
      &&op_store_key_attr,      &&op_store_key_const,
      &&op_halt,                &&op_cmp_attr_const_fail,
      &&op_cmp_attr_attr_fail,  &&op_cmp_attr_attr_off_fail,
  };
#define CEP2ASP_EXPR_NEXT() goto* kDispatch[static_cast<uint8_t>((pc)->op)]
  CEP2ASP_EXPR_NEXT();

op_store_key_attr:
  CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
  if (tuple != nullptr) {
    tuple->set_key(AttributeToKey(
        GetAttribute(events[pc->a], static_cast<Attribute>(pc->b))));
  }
  ++pc;
  CEP2ASP_EXPR_NEXT();

op_store_key_const:
  if (tuple != nullptr) tuple->set_key(key_pool[pc->imm]);
  ++pc;
  CEP2ASP_EXPR_NEXT();

op_halt:
  return true;

op_cmp_attr_const_fail : {
  CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
  const double lhs = GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
  if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), const_pool[pc->imm])) {
    return false;
  }
  ++pc;
  CEP2ASP_EXPR_NEXT();
}

op_cmp_attr_attr_fail : {
  CEP2ASP_DCHECK(pc->a < count && pc->d < count) << "expr var out of range";
  const double lhs = GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
  const double rhs = GetAttribute(events[pc->d], static_cast<Attribute>(pc->e));
  if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), rhs)) return false;
  ++pc;
  CEP2ASP_EXPR_NEXT();
}

op_cmp_attr_attr_off_fail : {
  CEP2ASP_DCHECK(pc->a < count && pc->d < count) << "expr var out of range";
  const double lhs = GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
  const double rhs =
      GetAttribute(events[pc->d], static_cast<Attribute>(pc->e)) +
      const_pool[pc->imm];
  if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), rhs)) return false;
  ++pc;
  CEP2ASP_EXPR_NEXT();
}
#undef CEP2ASP_EXPR_NEXT

#else  // portable fallback
  for (;; ++pc) {
    switch (pc->op) {
      case ExprOp::kStoreKeyAttr:
        CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
        if (tuple != nullptr) {
          tuple->set_key(AttributeToKey(
              GetAttribute(events[pc->a], static_cast<Attribute>(pc->b))));
        }
        break;
      case ExprOp::kStoreKeyConst:
        if (tuple != nullptr) tuple->set_key(key_pool[pc->imm]);
        break;
      case ExprOp::kHalt:
        return true;
      case ExprOp::kCmpAttrConstFail: {
        CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
        const double lhs =
            GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
        if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), const_pool[pc->imm])) {
          return false;
        }
        break;
      }
      case ExprOp::kCmpAttrAttrFail: {
        CEP2ASP_DCHECK(pc->a < count && pc->d < count)
            << "expr var out of range";
        const double lhs =
            GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
        const double rhs =
            GetAttribute(events[pc->d], static_cast<Attribute>(pc->e));
        if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), rhs)) return false;
        break;
      }
      case ExprOp::kCmpAttrAttrOffFail: {
        CEP2ASP_DCHECK(pc->a < count && pc->d < count)
            << "expr var out of range";
        const double lhs =
            GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
        const double rhs =
            GetAttribute(events[pc->d], static_cast<Attribute>(pc->e)) +
            const_pool[pc->imm];
        if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), rhs)) return false;
        break;
      }
    }
  }
#endif
}

// ---------------------------------------------------------------------------
// Columnar (SoA) execution

namespace {

/// Monomorphizes a comparison loop over its CmpOp: the comparator becomes
/// a template parameter of the inner loop instead of a per-element branch.
template <typename F>
void WithCmp(CmpOp op, F f) {
  switch (op) {
    case CmpOp::kLt:
      f([](double l, double r) { return l < r; });
      return;
    case CmpOp::kLe:
      f([](double l, double r) { return l <= r; });
      return;
    case CmpOp::kGt:
      f([](double l, double r) { return l > r; });
      return;
    case CmpOp::kGe:
      f([](double l, double r) { return l >= r; });
      return;
    case CmpOp::kEq:
      f([](double l, double r) { return l == r; });
      return;
    case CmpOp::kNe:
      f([](double l, double r) { return l != r; });
      return;
  }
}

#if CEP2ASP_EXPR_SIMD

/// Generates the four kernels of one comparator: {column vs constant,
/// column vs column + offset} x {SSE2, AVX2}. The compare intrinsics
/// implement exactly EvalCmp's IEEE semantics: ordered predicates
/// (LT/LE/GT/GE/EQ) are false on NaN operands, NEQ is unordered-true —
/// the same truth table as the C operators in EvalCmp. The movemask sign
/// bits become per-row bytes ANDed into the selection mask; the scalar
/// tail finishes rows past the last full vector.
#define CEP2ASP_DEF_SIMD_CMP(NAME, SCALAR_OP, SSE_CMP, AVX_IMM)               \
  void NAME##ConstSse2(const double* lhs, double rhs, size_t n,               \
                       uint8_t* mask) {                                       \
    const __m128d vr = _mm_set1_pd(rhs);                                      \
    size_t i = 0;                                                             \
    for (; i + 2 <= n; i += 2) {                                              \
      const int m = _mm_movemask_pd(SSE_CMP(_mm_loadu_pd(lhs + i), vr));      \
      mask[i] &= static_cast<uint8_t>(m & 1);                                 \
      mask[i + 1] &= static_cast<uint8_t>((m >> 1) & 1);                      \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      mask[i] &= static_cast<uint8_t>(lhs[i] SCALAR_OP rhs);                  \
    }                                                                         \
  }                                                                           \
  void NAME##ColsSse2(const double* lhs, const double* rhs, double offset,    \
                      size_t n, uint8_t* mask) {                              \
    const __m128d voff = _mm_set1_pd(offset);                                 \
    size_t i = 0;                                                             \
    for (; i + 2 <= n; i += 2) {                                              \
      const __m128d vr = _mm_add_pd(_mm_loadu_pd(rhs + i), voff);             \
      const int m = _mm_movemask_pd(SSE_CMP(_mm_loadu_pd(lhs + i), vr));      \
      mask[i] &= static_cast<uint8_t>(m & 1);                                 \
      mask[i + 1] &= static_cast<uint8_t>((m >> 1) & 1);                      \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      mask[i] &= static_cast<uint8_t>(lhs[i] SCALAR_OP(rhs[i] + offset));     \
    }                                                                         \
  }                                                                           \
  __attribute__((target("avx2"))) void NAME##ConstAvx2(                       \
      const double* lhs, double rhs, size_t n, uint8_t* mask) {               \
    const __m256d vr = _mm256_set1_pd(rhs);                                   \
    size_t i = 0;                                                             \
    for (; i + 4 <= n; i += 4) {                                              \
      const int m = _mm256_movemask_pd(                                       \
          _mm256_cmp_pd(_mm256_loadu_pd(lhs + i), vr, AVX_IMM));              \
      mask[i] &= static_cast<uint8_t>(m & 1);                                 \
      mask[i + 1] &= static_cast<uint8_t>((m >> 1) & 1);                      \
      mask[i + 2] &= static_cast<uint8_t>((m >> 2) & 1);                      \
      mask[i + 3] &= static_cast<uint8_t>((m >> 3) & 1);                      \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      mask[i] &= static_cast<uint8_t>(lhs[i] SCALAR_OP rhs);                  \
    }                                                                         \
  }                                                                           \
  __attribute__((target("avx2"))) void NAME##ColsAvx2(                        \
      const double* lhs, const double* rhs, double offset, size_t n,          \
      uint8_t* mask) {                                                        \
    const __m256d voff = _mm256_set1_pd(offset);                              \
    size_t i = 0;                                                             \
    for (; i + 4 <= n; i += 4) {                                              \
      const __m256d vr = _mm256_add_pd(_mm256_loadu_pd(rhs + i), voff);       \
      const int m = _mm256_movemask_pd(                                       \
          _mm256_cmp_pd(_mm256_loadu_pd(lhs + i), vr, AVX_IMM));              \
      mask[i] &= static_cast<uint8_t>(m & 1);                                 \
      mask[i + 1] &= static_cast<uint8_t>((m >> 1) & 1);                      \
      mask[i + 2] &= static_cast<uint8_t>((m >> 2) & 1);                      \
      mask[i + 3] &= static_cast<uint8_t>((m >> 3) & 1);                      \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      mask[i] &= static_cast<uint8_t>(lhs[i] SCALAR_OP(rhs[i] + offset));     \
    }                                                                         \
  }

CEP2ASP_DEF_SIMD_CMP(Lt, <, _mm_cmplt_pd, _CMP_LT_OQ)
CEP2ASP_DEF_SIMD_CMP(Le, <=, _mm_cmple_pd, _CMP_LE_OQ)
CEP2ASP_DEF_SIMD_CMP(Gt, >, _mm_cmpgt_pd, _CMP_GT_OQ)
CEP2ASP_DEF_SIMD_CMP(Ge, >=, _mm_cmpge_pd, _CMP_GE_OQ)
CEP2ASP_DEF_SIMD_CMP(Eq, ==, _mm_cmpeq_pd, _CMP_EQ_OQ)
CEP2ASP_DEF_SIMD_CMP(Ne, !=, _mm_cmpneq_pd, _CMP_NEQ_UQ)
#undef CEP2ASP_DEF_SIMD_CMP

/// Kernel table indexed by CmpOp; resolved once per process to AVX2 when
/// the CPU supports it, SSE2 otherwise.
struct SimdKernels {
  using ConstFn = void (*)(const double*, double, size_t, uint8_t*);
  using ColsFn = void (*)(const double*, const double*, double, size_t,
                          uint8_t*);
  ConstFn cmp_const[6] = {};
  ColsFn cmp_cols[6] = {};
};

const SimdKernels& Kernels() {
  static const SimdKernels kernels = [] {
    SimdKernels k;
    if (__builtin_cpu_supports("avx2")) {
      k.cmp_const[0] = LtConstAvx2;
      k.cmp_const[1] = LeConstAvx2;
      k.cmp_const[2] = GtConstAvx2;
      k.cmp_const[3] = GeConstAvx2;
      k.cmp_const[4] = EqConstAvx2;
      k.cmp_const[5] = NeConstAvx2;
      k.cmp_cols[0] = LtColsAvx2;
      k.cmp_cols[1] = LeColsAvx2;
      k.cmp_cols[2] = GtColsAvx2;
      k.cmp_cols[3] = GeColsAvx2;
      k.cmp_cols[4] = EqColsAvx2;
      k.cmp_cols[5] = NeColsAvx2;
    } else {
      k.cmp_const[0] = LtConstSse2;
      k.cmp_const[1] = LeConstSse2;
      k.cmp_const[2] = GtConstSse2;
      k.cmp_const[3] = GeConstSse2;
      k.cmp_const[4] = EqConstSse2;
      k.cmp_const[5] = NeConstSse2;
      k.cmp_cols[0] = LtColsSse2;
      k.cmp_cols[1] = LeColsSse2;
      k.cmp_cols[2] = GtColsSse2;
      k.cmp_cols[3] = GeColsSse2;
      k.cmp_cols[4] = EqColsSse2;
      k.cmp_cols[5] = NeColsSse2;
    }
    return k;
  }();
  return kernels;
}

#endif  // CEP2ASP_EXPR_SIMD

/// mask[i] &= (lhs[i] op rhs), over a contiguous column.
void MaskCmpColConst(CmpOp op, const double* lhs, double rhs, size_t n,
                     uint8_t* mask) {
#if CEP2ASP_EXPR_SIMD
  Kernels().cmp_const[static_cast<size_t>(op)](lhs, rhs, n, mask);
#else
  WithCmp(op, [&](auto cmp) {
    for (size_t i = 0; i < n; ++i) {
      mask[i] &= static_cast<uint8_t>(cmp(lhs[i], rhs));
    }
  });
#endif
}

/// mask[i] &= (lhs[i] op rhs[i] + offset), over two contiguous columns.
/// offset 0.0 is exact for every operand (x + 0.0 compares equal to x,
/// NaN stays NaN), matching the row-major path which adds it too.
void MaskCmpCols(CmpOp op, const double* lhs, const double* rhs, double offset,
                 size_t n, uint8_t* mask) {
#if CEP2ASP_EXPR_SIMD
  Kernels().cmp_cols[static_cast<size_t>(op)](lhs, rhs, offset, n, mask);
#else
  WithCmp(op, [&](auto cmp) {
    for (size_t i = 0; i < n; ++i) {
      mask[i] &= static_cast<uint8_t>(cmp(lhs[i], rhs[i] + offset));
    }
  });
#endif
}

}  // namespace

void ExprProgram::RunColumnar(const ExprColumnarView& view) const {
  uint8_t* mask = view.mask;
  const size_t n = view.count;
  if (n == 0) return;  // an empty block may carry a null mask
  std::memset(mask, 1, n);
  if (code_.empty()) return;
  CEP2ASP_DCHECK(ok_) << "running a failed compilation";
  for (const ExprInsn& insn : code_) {
    switch (insn.op) {
      case ExprOp::kCmpAttrConstFail: {
        CEP2ASP_DCHECK(insn.a < view.num_slots) << "expr var out of range";
        const double* lhs = view.attr_cols[insn.a * kNumEventAttrs + insn.b];
        MaskCmpColConst(static_cast<CmpOp>(insn.c), lhs, const_pool_[insn.imm],
                        n, mask);
        break;
      }
      case ExprOp::kCmpAttrAttrFail:
      case ExprOp::kCmpAttrAttrOffFail: {
        CEP2ASP_DCHECK(insn.a < view.num_slots && insn.d < view.num_slots)
            << "expr var out of range";
        const double* lhs = view.attr_cols[insn.a * kNumEventAttrs + insn.b];
        const double* rhs = view.attr_cols[insn.d * kNumEventAttrs + insn.e];
        const double offset = insn.op == ExprOp::kCmpAttrAttrOffFail
                                  ? const_pool_[insn.imm]
                                  : 0.0;
        MaskCmpCols(static_cast<CmpOp>(insn.c), lhs, rhs, offset, n, mask);
        break;
      }
      case ExprOp::kStoreKeyAttr: {
        if (view.keys == nullptr) break;
        CEP2ASP_DCHECK(insn.a < view.num_slots) << "expr var out of range";
        const double* col = view.attr_cols[insn.a * kNumEventAttrs + insn.b];
        for (size_t i = 0; i < n; ++i) {
          if (mask[i]) view.keys[i] = AttributeToKey(col[i]);
        }
        break;
      }
      case ExprOp::kStoreKeyConst: {
        if (view.keys == nullptr) break;
        const int64_t key = key_pool_[insn.imm];
        for (size_t i = 0; i < n; ++i) {
          if (mask[i]) view.keys[i] = key;
        }
        break;
      }
      case ExprOp::kHalt:
        return;
    }
  }
}

bool ExprProgram::Run(Tuple* tuple) const {
  if (code_.empty()) return true;
  CEP2ASP_DCHECK(ok_) << "running a failed compilation";
  return ExecProgram(code_.data(), const_pool_.data(), key_pool_.data(),
                     tuple->begin(), tuple->size(), tuple);
}

bool ExprProgram::EvalOnEvents(const SimpleEvent* events, size_t count) const {
  if (code_.empty()) return true;
  CEP2ASP_DCHECK(ok_) << "running a failed compilation";
  return ExecProgram(code_.data(), const_pool_.data(), key_pool_.data(), events,
                     count, nullptr);
}

std::string ExprProgram::ToString() const {
  std::string out;
  for (size_t i = 0; i < code_.size(); ++i) {
    const ExprInsn& insn = code_[i];
    out += std::to_string(i);
    out += ": ";
    switch (insn.op) {
      case ExprOp::kStoreKeyAttr:
        out += "key := e" + std::to_string(insn.a) + "." +
               AttributeName(static_cast<Attribute>(insn.b));
        break;
      case ExprOp::kStoreKeyConst:
        out += "key := " + std::to_string(key_pool_[insn.imm]);
        break;
      case ExprOp::kHalt:
        out += "halt";
        break;
      case ExprOp::kCmpAttrConstFail:
        out += "fail unless e" + std::to_string(insn.a) + "." +
               AttributeName(static_cast<Attribute>(insn.b)) + " " +
               CmpOpToString(static_cast<CmpOp>(insn.c)) + " " +
               FormatDouble(const_pool_[insn.imm]);
        break;
      case ExprOp::kCmpAttrAttrFail:
        out += "fail unless e" + std::to_string(insn.a) + "." +
               AttributeName(static_cast<Attribute>(insn.b)) + " " +
               CmpOpToString(static_cast<CmpOp>(insn.c)) + " e" +
               std::to_string(insn.d) + "." +
               AttributeName(static_cast<Attribute>(insn.e));
        break;
      case ExprOp::kCmpAttrAttrOffFail:
        out += "fail unless e" + std::to_string(insn.a) + "." +
               AttributeName(static_cast<Attribute>(insn.b)) + " " +
               CmpOpToString(static_cast<CmpOp>(insn.c)) + " e" +
               std::to_string(insn.d) + "." +
               AttributeName(static_cast<Attribute>(insn.e)) + " + " +
               FormatDouble(const_pool_[insn.imm]);
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace cep2asp
