// ExprVerifier: every program the emitters produce must verify, and a
// corpus of mutated/malformed encodings must all be rejected. FromRaw
// bypasses the emitter deliberately — the verifier is the only line of
// defense for programs that did not come out of ExprProgram::Filter.
#include "event/expr_verifier.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "event/expr_program.h"
#include "event/predicate.h"

namespace cep2asp {
namespace {

ExprInsn Raw(ExprOp op, uint8_t a = 0, uint8_t b = 0, uint8_t c = 0,
             uint8_t d = 0, uint8_t e = 0, uint8_t imm = 0) {
  ExprInsn insn;
  insn.op = op;
  insn.a = a;
  insn.b = b;
  insn.c = c;
  insn.d = d;
  insn.e = e;
  insn.imm = imm;
  return insn;
}

ExprInsn Halt() { return Raw(ExprOp::kHalt); }

// --- well-formed programs ---------------------------------------------------

TEST(ExprVerifierTest, EmptyProgramVerifies) {
  EXPECT_TRUE(ExprVerifier::Verify(ExprProgram(), 1).ok());
}

TEST(ExprVerifierTest, EmitterFilterProgramsVerify) {
  Predicate pred;
  pred.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 0.5));
  pred.Add(Comparison::AttrAttr({0, Attribute::kTs}, CmpOp::kLe,
                                {1, Attribute::kTs}));
  pred.Add(Comparison::AttrAttr({1, Attribute::kValue}, CmpOp::kGt,
                                {2, Attribute::kValue}, 3.0));

  const ExprProgram positional =
      ExprProgram::Filter(pred, ExprProgram::VarMode::kPositional);
  ASSERT_TRUE(positional.ok());
  EXPECT_TRUE(ExprVerifier::Verify(positional, 3).ok())
      << positional.ToString();

  const ExprProgram broadcast =
      ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast);
  ASSERT_TRUE(broadcast.ok());
  // Broadcast resolves every variable to event 0, so one event suffices.
  EXPECT_TRUE(ExprVerifier::Verify(broadcast, 1).ok());
}

TEST(ExprVerifierTest, EmitterKeyAndFusedProgramsVerify) {
  const ExprProgram by_attr = ExprProgram::KeyByAttribute(1, Attribute::kId);
  ASSERT_TRUE(by_attr.ok());
  EXPECT_TRUE(ExprVerifier::Verify(by_attr, 2).ok());

  const ExprProgram by_const = ExprProgram::KeyByConstant(42);
  ASSERT_TRUE(by_const.ok());
  EXPECT_TRUE(ExprVerifier::Verify(by_const, 1).ok());

  Predicate pred;
  pred.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kGe, 10.0));
  const ExprProgram fused = ExprProgram::Fuse(
      ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast), by_const);
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(ExprVerifier::Verify(fused, 1).ok()) << fused.ToString();
}

// Property: any predicate Predicate::Add can express compiles (both variable
// modes) to a program the verifier accepts.
TEST(ExprVerifierTest, RandomizedEmitterProgramsVerify) {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int> var_dist(0, 3);
  std::uniform_int_distribution<int> attr_dist(
      0, static_cast<int>(Attribute::kAuxTs));
  std::uniform_int_distribution<int> cmp_dist(0,
                                              static_cast<int>(CmpOp::kNe));
  std::uniform_real_distribution<double> const_dist(-1e6, 1e6);
  std::uniform_int_distribution<int> terms_dist(0, 6);
  std::bernoulli_distribution attr_rhs(0.5);
  std::bernoulli_distribution with_offset(0.3);

  for (int trial = 0; trial < 200; ++trial) {
    Predicate pred;
    const int num_terms = terms_dist(rng);
    for (int t = 0; t < num_terms; ++t) {
      const AttrRef lhs{var_dist(rng),
                        static_cast<Attribute>(attr_dist(rng))};
      const CmpOp op = static_cast<CmpOp>(cmp_dist(rng));
      if (attr_rhs(rng)) {
        const AttrRef rhs{var_dist(rng),
                          static_cast<Attribute>(attr_dist(rng))};
        pred.Add(Comparison::AttrAttr(
            lhs, op, rhs, with_offset(rng) ? const_dist(rng) : 0.0));
      } else {
        pred.Add(Comparison::AttrConst(lhs, op, const_dist(rng)));
      }
    }
    const ExprProgram pos =
        ExprProgram::Filter(pred, ExprProgram::VarMode::kPositional);
    ASSERT_TRUE(pos.ok());
    EXPECT_TRUE(ExprVerifier::Verify(pos, 4).ok())
        << "trial " << trial << ":\n" << pos.ToString();
    const ExprProgram bcast =
        ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast);
    ASSERT_TRUE(bcast.ok());
    EXPECT_TRUE(ExprVerifier::Verify(bcast, 1).ok())
        << "trial " << trial << ":\n" << bcast.ToString();
  }
}

// --- mutation corpus: every malformed encoding is rejected ------------------

TEST(ExprVerifierTest, RejectsTruncatedProgram) {
  // A filter with its trailing kHalt chopped off falls through.
  Predicate pred;
  pred.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 1.0));
  const ExprProgram full =
      ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast);
  std::vector<ExprInsn> code = full.code();
  ASSERT_FALSE(code.empty());
  code.pop_back();
  const ExprProgram mutant =
      ExprProgram::FromRaw(code, full.const_pool(), full.key_pool());
  const Status status = ExprVerifier::Verify(mutant, 1);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("falls through"), std::string::npos)
      << status.message();
}

TEST(ExprVerifierTest, RejectsCodeAfterHalt) {
  const ExprProgram mutant = ExprProgram::FromRaw(
      {Halt(), Raw(ExprOp::kCmpAttrConstFail, 0,
                   static_cast<uint8_t>(Attribute::kValue),
                   static_cast<uint8_t>(CmpOp::kLt), 0, 0, 0),
       Halt()},
      {1.0}, {});
  EXPECT_FALSE(ExprVerifier::Verify(mutant, 1).ok());
}

TEST(ExprVerifierTest, RejectsUndefinedOpcode) {
  ExprInsn bogus = Halt();
  bogus.op = static_cast<ExprOp>(250);
  const ExprProgram mutant = ExprProgram::FromRaw({bogus, Halt()}, {}, {});
  EXPECT_FALSE(ExprVerifier::Verify(mutant, 1).ok());
}

TEST(ExprVerifierTest, RejectsEventOperandOutOfRange) {
  // load e2.value with only 2 declared events (valid slots 0..1).
  const ExprProgram mutant = ExprProgram::FromRaw(
      {Raw(ExprOp::kCmpAttrConstFail, /*a=*/2,
           static_cast<uint8_t>(Attribute::kValue),
           static_cast<uint8_t>(CmpOp::kLt), 0, 0, 0),
       Halt()},
      {1.0}, {});
  EXPECT_FALSE(ExprVerifier::Verify(mutant, 2).ok());
  EXPECT_TRUE(ExprVerifier::Verify(mutant, 3).ok());
}

TEST(ExprVerifierTest, RejectsBadAttributeAndBadCmp) {
  const ExprProgram bad_attr = ExprProgram::FromRaw(
      {Raw(ExprOp::kStoreKeyAttr, 0, /*b=*/17), Halt()}, {}, {});
  EXPECT_FALSE(ExprVerifier::Verify(bad_attr, 1).ok());

  const ExprProgram bad_rhs_attr = ExprProgram::FromRaw(
      {Raw(ExprOp::kCmpAttrAttrFail, 0,
           static_cast<uint8_t>(Attribute::kValue),
           static_cast<uint8_t>(CmpOp::kLt), 0, /*e=*/17, 0),
       Halt()},
      {}, {});
  EXPECT_FALSE(ExprVerifier::Verify(bad_rhs_attr, 1).ok());

  const ExprProgram bad_cmp = ExprProgram::FromRaw(
      {Raw(ExprOp::kCmpAttrConstFail, 0,
           static_cast<uint8_t>(Attribute::kValue), /*c=*/9, 0, 0, 0),
       Halt()},
      {1.0}, {});
  EXPECT_FALSE(ExprVerifier::Verify(bad_cmp, 1).ok());
}

TEST(ExprVerifierTest, RejectsPoolIndexOutOfRange) {
  const ExprProgram bad_const = ExprProgram::FromRaw(
      {Raw(ExprOp::kCmpAttrConstFail, 0,
           static_cast<uint8_t>(Attribute::kValue),
           static_cast<uint8_t>(CmpOp::kLt), 0, 0, /*imm=*/3),
       Halt()},
      {1.0}, {});
  EXPECT_FALSE(ExprVerifier::Verify(bad_const, 1).ok());

  const ExprProgram bad_offset = ExprProgram::FromRaw(
      {Raw(ExprOp::kCmpAttrAttrOffFail, 0,
           static_cast<uint8_t>(Attribute::kValue),
           static_cast<uint8_t>(CmpOp::kLt), 0,
           static_cast<uint8_t>(Attribute::kValue), /*imm=*/1),
       Halt()},
      {1.0}, {});
  EXPECT_FALSE(ExprVerifier::Verify(bad_offset, 1).ok());

  const ExprProgram bad_key = ExprProgram::FromRaw(
      {Raw(ExprOp::kStoreKeyConst, 0, 0, 0, 0, 0, /*imm=*/0), Halt()}, {},
      {});
  EXPECT_FALSE(ExprVerifier::Verify(bad_key, 1).ok());
}

TEST(ExprVerifierTest, RejectsFailedCompilationAndZeroEvents) {
  // A positional variable index above 255 overflows the 8-bit var
  // operand: compilation fails and the verifier refuses the carcass.
  Predicate pred;
  pred.Add(Comparison::AttrConst({300, Attribute::kValue}, CmpOp::kLt, 1.0));
  const ExprProgram failed =
      ExprProgram::Filter(pred, ExprProgram::VarMode::kPositional);
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(ExprVerifier::Verify(failed, 1).ok());

  EXPECT_FALSE(
      ExprVerifier::Verify(ExprProgram::KeyByConstant(1), 0).ok());
}

/// Operand fields an opcode reads, as mutation indices (1=a .. 5=e,
/// 6=imm); the opcode byte itself (0) is always read.
std::vector<int> ReadFields(ExprOp op) {
  switch (op) {
    case ExprOp::kStoreKeyAttr: return {1, 2};
    case ExprOp::kStoreKeyConst: return {6};
    case ExprOp::kHalt: return {};
    case ExprOp::kCmpAttrConstFail: return {1, 2, 3, 6};
    case ExprOp::kCmpAttrAttrFail: return {1, 2, 3, 4, 5};
    case ExprOp::kCmpAttrAttrOffFail: return {1, 2, 3, 4, 5, 6};
  }
  return {};
}

void SmashField(ExprInsn* victim, int field, uint8_t value) {
  switch (field) {
    case 0: victim->op = static_cast<ExprOp>(value); break;
    case 1: victim->a = value; break;
    case 2: victim->b = value; break;
    case 3: victim->c = value; break;
    case 4: victim->d = value; break;
    case 5: victim->e = value; break;
    default: victim->imm = value; break;
  }
}

/// Two event slots of kRows rows each, all attributes 1.0, as a columnar
/// view: accepted mutants must run here without reading out of bounds.
class ColumnarScratch {
 public:
  static constexpr size_t kRows = 3;

  ColumnarScratch()
      : columns_(2 * kNumEventAttrs, std::vector<double>(kRows, 1.0)) {
    for (const std::vector<double>& col : columns_) {
      column_ptrs_.push_back(col.data());
    }
    view_.attr_cols = column_ptrs_.data();
    view_.num_slots = 2;
    view_.keys = keys_;
    view_.count = kRows;
    view_.mask = mask_;
  }

  const ExprColumnarView& view() const { return view_; }

 private:
  std::vector<std::vector<double>> columns_;
  std::vector<const double*> column_ptrs_;
  int64_t keys_[kRows] = {};
  uint8_t mask_[kRows] = {};
  ExprColumnarView view_;
};

// Random byte-level mutations of valid programs must never verify as
// something the executor would then run out of bounds: every accepted
// mutant must still execute safely in both execution modes (accepted
// implies its operand fields are in range by construction of the
// verifier, so here we only require that rejection dominates and
// acceptance never crashes — under ASan an out-of-range read would).
TEST(ExprVerifierTest, RandomMutationsEitherRejectOrStaySafe) {
  Predicate pred;
  pred.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 0.5));
  pred.Add(Comparison::AttrAttr({0, Attribute::kTs}, CmpOp::kLe,
                                {1, Attribute::kTs}));
  const ExprProgram base =
      ExprProgram::Filter(pred, ExprProgram::VarMode::kPositional);
  ASSERT_TRUE(ExprVerifier::Verify(base, 2).ok());

  std::mt19937_64 rng(7);
  std::uniform_int_distribution<size_t> insn_dist(0, base.code().size() - 1);
  std::uniform_int_distribution<int> field_dist(0, 6);
  std::uniform_int_distribution<int> byte_dist(0, 255);

  SimpleEvent events[2] = {};
  const ColumnarScratch scratch;
  int accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<ExprInsn> code = base.code();
    ExprInsn& victim = code[insn_dist(rng)];
    const uint8_t value = static_cast<uint8_t>(byte_dist(rng));
    SmashField(&victim, field_dist(rng), value);
    const ExprProgram mutant =
        ExprProgram::FromRaw(code, base.const_pool(), base.key_pool());
    if (ExprVerifier::Verify(mutant, 2).ok()) {
      ++accepted;
      // Verified implies executable: all operands proved in range.
      (void)mutant.EvalOnEvents(events, 2);
      mutant.RunColumnar(scratch.view());
    }
  }
  // Most random byte smashes corrupt an invariant; a few (e.g. flipping a
  // CmpOp to another valid CmpOp) legitimately still verify.
  EXPECT_LT(accepted, 250);
}

// The same corpus over the opcodes the filter base above lacks (the
// offset term and both key stores), smashing only the opcode byte or an
// operand the victim reads — a key store ignores most fields, so blind
// smashes would mostly be no-ops there.
TEST(ExprVerifierTest, RandomOperandMutationsOfKeyAndOffsetOpcodes) {
  Predicate offset_pred;
  offset_pred.Add(Comparison::AttrAttr({1, Attribute::kValue}, CmpOp::kGt,
                                       {0, Attribute::kValue}, 2.5));
  const ExprProgram base = ExprProgram::Fuse(
      ExprProgram::Filter(offset_pred, ExprProgram::VarMode::kPositional),
      ExprProgram::Fuse(ExprProgram::KeyByAttribute(1, Attribute::kId),
                        ExprProgram::KeyByConstant(7)));
  ASSERT_TRUE(ExprVerifier::Verify(base, 2).ok()) << base.ToString();

  std::mt19937_64 rng(11);
  std::uniform_int_distribution<size_t> insn_dist(0, base.code().size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);

  SimpleEvent events[2] = {};
  const ColumnarScratch scratch;
  int accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<ExprInsn> code = base.code();
    ExprInsn& victim = code[insn_dist(rng)];
    std::vector<int> fields = ReadFields(victim.op);
    fields.push_back(0);
    const int field = fields[rng() % fields.size()];
    SmashField(&victim, field, static_cast<uint8_t>(byte_dist(rng)));
    const ExprProgram mutant =
        ExprProgram::FromRaw(code, base.const_pool(), base.key_pool());
    if (ExprVerifier::Verify(mutant, 2).ok()) {
      ++accepted;
      (void)mutant.EvalOnEvents(events, 2);
      mutant.RunColumnar(scratch.view());
    }
  }
  EXPECT_LT(accepted, 250);
}

}  // namespace
}  // namespace cep2asp
