/**
 * @file
 * Lowering from the elaborated design to bytecode.
 *
 * The lowering mirrors sim/eval.cc's width rules node for node: every
 * slot records the exact width the interpreter's Bits value would have,
 * parents resize on read, and width-sensitive mutations
 * (MUT_SIM_CMP_CTX_WIDTH, MUT_SIM_CASE_SEL_WIDTH) are applied here at
 * lowering time — they are structural. Value-level mutations (add/sub,
 * shift off-by-one, ternary swap, xor/or, lt/le) stay runtime checks in
 * the executor so both backends read the same global switch.
 */

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "common/testhooks.hh"
#include "compile/bytecode.hh"

namespace hwdbg::compile
{

using namespace hdl;
using sim::LoweredDesign;
using sim::SignalInfo;

namespace
{

class Lowerer
{
  public:
    explicit Lowerer(const LoweredDesign &design) : design_(design) {}

    Program run();

  private:
    struct Slot
    {
        uint32_t off = 0;
        uint32_t width = 0;
    };

    uint32_t
    allocWords(uint32_t nw)
    {
        uint32_t off = slabTop_;
        slabTop_ += nw;
        return off;
    }

    Slot
    temp(uint32_t width)
    {
        return Slot{allocWords(wordsFor(width)), width};
    }

    Slot constSlot(const Bits &value);
    Slot lowerExpr(const ExprPtr &e, uint32_t cw);
    Slot resizeTo(const Slot &s, uint32_t w);
    void lowerStmt(const StmtPtr &stmt, bool clocked);
    void lowerStore(const ExprPtr &lhs, const Slot &value);
    void lowerNba(const ExprPtr &lhs, const Slot &value);
    StoreDesc simpleTarget(const ExprPtr &lhs, const Slot &value);

    Op &
    emit(Opc opc)
    {
        prog_.ops.push_back(Op{});
        Op &op = prog_.ops.back();
        op.opc = opc;
        return op;
    }

    Op &
    emitDst(Opc opc, const Slot &dst)
    {
        Op &op = emit(opc);
        op.w = dst.width;
        op.nw = static_cast<uint16_t>(wordsFor(dst.width));
        op.d = dst.off;
        return op;
    }

    uint32_t
    here() const
    {
        return static_cast<uint32_t>(prog_.ops.size());
    }

    const LoweredDesign &design_;

    Program prog_;
    uint32_t slabTop_ = 0;
    /** (width, words) -> slot offset, so equal constants share a slot. */
    std::map<std::pair<uint32_t, std::vector<Word>>, uint32_t> consts_;
    /** Constant values to paint into slabInit at the end. */
    std::vector<std::pair<uint32_t, Bits>> constImage_;
};

Lowerer::Slot
Lowerer::constSlot(const Bits &value)
{
    std::vector<Word> words(value.rawWords(),
                            value.rawWords() + value.numWords());
    auto key = std::make_pair(value.width(), std::move(words));
    auto it = consts_.find(key);
    if (it != consts_.end())
        return Slot{it->second, value.width()};
    uint32_t off = allocWords(wordsFor(value.width()));
    consts_.emplace(std::move(key), off);
    constImage_.emplace_back(off, value);
    return Slot{off, value.width()};
}

Lowerer::Slot
Lowerer::resizeTo(const Slot &s, uint32_t w)
{
    if (s.width == w)
        return s;
    Slot dst = temp(w);
    Op &op = emitDst(Opc::Copy, dst);
    op.a = s.off;
    op.wa = s.width;
    return dst;
}

Lowerer::Slot
Lowerer::lowerExpr(const ExprPtr &e, uint32_t cw)
{
    uint32_t self = e->width;
    if (self == 0)
        panic("lowerExpr: expression at %s was not annotated",
              e->loc.str().c_str());
    uint32_t w = std::max(cw, self);

    switch (e->kind) {
      case ExprKind::Number:
        return constSlot(e->as<NumberExpr>()->value.resized(w));
      case ExprKind::Id: {
        int sig = e->as<IdExpr>()->resolved;
        Slot s{prog_.sigOff[sig], design_.info(sig).width};
        return resizeTo(s, w);
      }
      case ExprKind::Unary: {
        const auto *un = e->as<UnaryExpr>();
        switch (un->op) {
          case UnaryOp::Neg:
          case UnaryOp::BitNot: {
            Slot v = lowerExpr(un->arg, w);
            Slot dst = temp(v.width);
            Op &op = emitDst(un->op == UnaryOp::Neg ? Opc::Neg
                                                    : Opc::Not,
                             dst);
            op.a = v.off;
            op.wa = v.width;
            return dst;
          }
          case UnaryOp::LogNot:
          case UnaryOp::RedAnd:
          case UnaryOp::RedOr:
          case UnaryOp::RedXor: {
            Slot v = lowerExpr(un->arg, 0);
            Slot dst = temp(w);
            Opc opc = Opc::LogNot;
            if (un->op == UnaryOp::RedAnd)
                opc = Opc::RedAnd;
            else if (un->op == UnaryOp::RedOr)
                opc = Opc::RedOr;
            else if (un->op == UnaryOp::RedXor)
                opc = Opc::RedXor;
            Op &op = emitDst(opc, dst);
            op.a = v.off;
            op.wa = v.width;
            return dst;
          }
        }
        break;
      }
      case ExprKind::Binary: {
        const auto *bin = e->as<BinaryExpr>();
        switch (bin->op) {
          case BinaryOp::Add:
          case BinaryOp::Sub:
          case BinaryOp::Mul:
          case BinaryOp::Div:
          case BinaryOp::Mod: {
            Slot a = lowerExpr(bin->lhs, w);
            Slot b = lowerExpr(bin->rhs, w);
            Slot dst = temp(w);
            Opc opc = Opc::Add;
            if (bin->op == BinaryOp::Sub)
                opc = Opc::Sub;
            else if (bin->op == BinaryOp::Mul)
                opc = Opc::Mul;
            else if (bin->op == BinaryOp::Div)
                opc = Opc::Divu;
            else if (bin->op == BinaryOp::Mod)
                opc = Opc::Modu;
            Op &op = emitDst(opc, dst);
            op.a = a.off;
            op.wa = a.width;
            op.b = b.off;
            op.wb = b.width;
            return dst;
          }
          case BinaryOp::BitAnd:
          case BinaryOp::BitOr:
          case BinaryOp::BitXor: {
            Slot a = lowerExpr(bin->lhs, w);
            Slot b = lowerExpr(bin->rhs, w);
            Slot dst = temp(std::max(a.width, b.width));
            Opc opc = bin->op == BinaryOp::BitAnd ? Opc::And
                      : bin->op == BinaryOp::BitOr ? Opc::Or
                                                   : Opc::Xor;
            Op &op = emitDst(opc, dst);
            op.a = a.off;
            op.wa = a.width;
            op.b = b.off;
            op.wb = b.width;
            return dst;
          }
          case BinaryOp::Shl:
          case BinaryOp::Shr: {
            Slot a = lowerExpr(bin->lhs, w);
            Slot amt = lowerExpr(bin->rhs, 0);
            Slot dst = temp(a.width);
            Op &op = emitDst(bin->op == BinaryOp::Shl ? Opc::Shl
                                                      : Opc::Shr,
                             dst);
            op.a = a.off;
            op.wa = a.width;
            op.b = amt.off;
            op.wb = amt.width;
            return dst;
          }
          case BinaryOp::LogAnd:
          case BinaryOp::LogOr: {
            Slot a = lowerExpr(bin->lhs, 0);
            Slot b = lowerExpr(bin->rhs, 0);
            Slot dst = temp(w);
            Op &op = emitDst(bin->op == BinaryOp::LogAnd
                                 ? Opc::LogAnd
                                 : Opc::LogOr,
                             dst);
            op.a = a.off;
            op.wa = a.width;
            op.b = b.off;
            op.wb = b.width;
            return dst;
          }
          default: {
            // Comparisons: operands at the larger self-determined
            // width (width mutation applied at lowering time; it is
            // structural and set before simulator construction).
            uint32_t cmp_w =
                std::max(bin->lhs->width, bin->rhs->width);
            if (mutationOn(MUT_SIM_CMP_CTX_WIDTH))
                cmp_w = std::max(cmp_w, cw);
            Slot a = lowerExpr(bin->lhs, cmp_w);
            Slot b = lowerExpr(bin->rhs, cmp_w);
            Slot dst = temp(w);
            Opc opc;
            switch (bin->op) {
              case BinaryOp::Eq: opc = Opc::CmpEq; break;
              case BinaryOp::Ne: opc = Opc::CmpNe; break;
              case BinaryOp::Lt: opc = Opc::CmpLt; break;
              case BinaryOp::Le: opc = Opc::CmpLe; break;
              case BinaryOp::Gt: opc = Opc::CmpGt; break;
              case BinaryOp::Ge: opc = Opc::CmpGe; break;
              default:
                panic("lowerExpr: bad comparison");
            }
            Op &op = emitDst(opc, dst);
            op.a = a.off;
            op.wa = a.width;
            op.b = b.off;
            op.wb = b.width;
            return dst;
          }
        }
        break;
      }
      case ExprKind::Ternary: {
        const auto *tern = e->as<TernaryExpr>();
        Slot c = lowerExpr(tern->cond, 0);
        Slot a = lowerExpr(tern->thenExpr, w);
        Slot b = lowerExpr(tern->elseExpr, w);
        Slot dst = temp(w);
        Op &op = emitDst(Opc::Select, dst);
        op.a = a.off;
        op.wa = a.width;
        op.b = b.off;
        op.wb = b.width;
        op.c = c.off;
        op.aux2 = static_cast<int32_t>(c.width);
        return dst;
      }
      case ExprKind::Concat: {
        const auto *cat = e->as<ConcatExpr>();
        std::vector<Slot> parts;
        uint32_t total = 0;
        for (const auto &part : cat->parts) {
            parts.push_back(lowerExpr(part, 0));
            total += parts.back().width;
        }
        Slot dst = temp(total);
        emitDst(Opc::ClearTemp, dst);
        uint32_t consumed = 0;
        for (const Slot &part : parts) {
            Op &op = emitDst(Opc::WriteTemp, dst);
            op.a = part.off;
            op.wa = part.width;
            op.aux =
                static_cast<int32_t>(total - consumed - part.width);
            consumed += part.width;
        }
        return resizeTo(dst, w);
      }
      case ExprKind::Repeat: {
        const auto *rep = e->as<RepeatExpr>();
        Slot inner = lowerExpr(rep->inner, 0);
        uint32_t count = e->width / rep->inner->width;
        uint32_t total = inner.width * count;
        Slot dst = temp(total);
        emitDst(Opc::ClearTemp, dst);
        for (uint32_t k = 0; k < count; ++k) {
            Op &op = emitDst(Opc::WriteTemp, dst);
            op.a = inner.off;
            op.wa = inner.width;
            op.aux = static_cast<int32_t>(k * inner.width);
        }
        return resizeTo(dst, w);
      }
      case ExprKind::Index: {
        const auto *idx = e->as<IndexExpr>();
        const SignalInfo &sig = design_.info(idx->resolved);
        Slot index = lowerExpr(idx->index, 0);
        Slot dst = temp(w);
        if (sig.arraySize != 0) {
            Op &op = emitDst(Opc::ArrGet, dst);
            op.b = index.off;
            op.wb = index.width;
            op.aux = idx->resolved;
        } else {
            Op &op = emitDst(Opc::BitGet, dst);
            op.a = prog_.sigOff[idx->resolved];
            op.wa = sig.width;
            op.b = index.off;
            op.wb = index.width;
        }
        return dst;
      }
      case ExprKind::Range: {
        const auto *range = e->as<RangeExpr>();
        const SignalInfo &sig = design_.info(range->resolved);
        uint32_t lo = std::min(range->msbConst, range->lsbConst);
        uint32_t hi = std::max(range->msbConst, range->lsbConst);
        uint32_t sw = hi - lo + 1;
        Slot dst = temp(w);
        Op &op = emitDst(Opc::SliceGet, dst);
        op.a = prog_.sigOff[range->resolved];
        op.wa = sig.width;
        op.aux = static_cast<int32_t>(lo);
        op.aux2 = static_cast<int32_t>(std::min(sw, w));
        return dst;
      }
    }
    panic("lowerExpr: unreachable");
}

/** One store/NBA part target for a simple (non-concat) lvalue. */
StoreDesc
Lowerer::simpleTarget(const ExprPtr &lhs, const Slot &value)
{
    StoreDesc sd;
    sd.valSlot = value.off;
    sd.valW = value.width;
    switch (lhs->kind) {
      case ExprKind::Id:
        sd.kind = StoreDesc::Whole;
        sd.sig = lhs->as<IdExpr>()->resolved;
        break;
      case ExprKind::Index: {
        const auto *idx = lhs->as<IndexExpr>();
        const SignalInfo &sig = design_.info(idx->resolved);
        Slot index = lowerExpr(idx->index, 0);
        sd.sig = idx->resolved;
        sd.idxSlot = index.off;
        sd.kind = sig.arraySize != 0 ? StoreDesc::Elem : StoreDesc::Bit;
        break;
      }
      case ExprKind::Range: {
        const auto *range = lhs->as<RangeExpr>();
        sd.kind = StoreDesc::Slice;
        sd.sig = range->resolved;
        sd.msb = std::max(range->msbConst, range->lsbConst);
        sd.lsb = std::min(range->msbConst, range->lsbConst);
        break;
      }
      default:
        fatal("%s: expression is not assignable",
              lhs->loc.str().c_str());
    }
    return sd;
}

void
Lowerer::lowerStore(const ExprPtr &lhs, const Slot &value)
{
    // Mirror storeLValue: resolve every part (evaluating index
    // expressions) before the first store lands, then apply in
    // MSB-first order.
    if (lhs->kind == ExprKind::Concat) {
        const auto *cat = lhs->as<ConcatExpr>();
        uint32_t total = lhs->width;
        uint32_t consumed = 0;
        std::vector<StoreDesc> parts;
        for (const auto &part : cat->parts) {
            uint32_t pw = part->width;
            uint32_t rhs_lsb = total - consumed - pw;
            Slot pv = temp(pw);
            Op &op = emitDst(Opc::SliceGet, pv);
            op.a = value.off;
            op.wa = value.width;
            op.aux = static_cast<int32_t>(rhs_lsb);
            op.aux2 = static_cast<int32_t>(pw);
            parts.push_back(simpleTarget(part, pv));
            consumed += pw;
        }
        for (const StoreDesc &sd : parts) {
            Op &op = emit(Opc::Store);
            op.aux = static_cast<int32_t>(prog_.stores.size());
            prog_.stores.push_back(sd);
        }
        return;
    }
    StoreDesc sd = simpleTarget(lhs, value);
    Op &op = emit(Opc::Store);
    op.aux = static_cast<int32_t>(prog_.stores.size());
    prog_.stores.push_back(sd);
}

void
Lowerer::lowerNba(const ExprPtr &lhs, const Slot &value)
{
    // Mirror the interpreter: resolveLValue samples index expressions
    // at execution time, then queues one pending write per part with
    // its RHS slice. NbaPush resolves its target when it executes,
    // which is the same instant.
    struct PartPlan
    {
        const ExprPtr *part;
        uint32_t rhsMsb, rhsLsb;
    };
    std::vector<PartPlan> plan;
    if (lhs->kind == ExprKind::Concat) {
        const auto *cat = lhs->as<ConcatExpr>();
        uint32_t total = lhs->width;
        uint32_t consumed = 0;
        for (const auto &part : cat->parts) {
            uint32_t pw = part->width;
            plan.push_back(PartPlan{&part, total - consumed - 1,
                                    total - consumed - pw});
            consumed += pw;
        }
    } else {
        plan.push_back(PartPlan{&lhs, lhs->width - 1, 0});
    }
    for (const PartPlan &pp : plan) {
        const ExprPtr &part = *pp.part;
        NbaDesc nd;
        nd.valSlot = value.off;
        nd.valW = value.width;
        nd.rhsMsb = pp.rhsMsb;
        nd.rhsLsb = pp.rhsLsb;
        switch (part->kind) {
          case ExprKind::Id:
            nd.kind = StoreDesc::Whole;
            nd.sig = part->as<IdExpr>()->resolved;
            break;
          case ExprKind::Index: {
            const auto *idx = part->as<IndexExpr>();
            const SignalInfo &sig = design_.info(idx->resolved);
            Slot index = lowerExpr(idx->index, 0);
            nd.sig = idx->resolved;
            nd.idxSlot = index.off;
            nd.kind = sig.arraySize != 0 ? StoreDesc::Elem
                                         : StoreDesc::Bit;
            break;
          }
          case ExprKind::Range: {
            const auto *range = part->as<RangeExpr>();
            nd.kind = StoreDesc::Slice;
            nd.sig = range->resolved;
            nd.msb = std::max(range->msbConst, range->lsbConst);
            nd.lsb = std::min(range->msbConst, range->lsbConst);
            break;
          }
          default:
            fatal("%s: expression is not assignable",
                  part->loc.str().c_str());
        }
        Op &op = emit(Opc::NbaPush);
        op.aux = static_cast<int32_t>(prog_.nbas.size());
        prog_.nbas.push_back(nd);
    }
}

void
Lowerer::lowerStmt(const StmtPtr &stmt, bool clocked)
{
    if (!stmt)
        return;
    emit(Opc::CoverStmt).stmt = stmt.get();
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            lowerStmt(sub, clocked);
        break;
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        Slot c = lowerExpr(branch->cond, 0);
        uint32_t jz_at = here();
        Op &jz = emit(Opc::Jz);
        jz.a = c.off;
        jz.wa = c.width;
        Op &arm0 = emit(Opc::CoverArm);
        arm0.stmt = stmt.get();
        arm0.aux = 0;
        lowerStmt(branch->thenStmt, clocked);
        uint32_t jmp_at = here();
        emit(Opc::Jmp);
        prog_.ops[jz_at].aux = static_cast<int32_t>(here());
        Op &arm1 = emit(Opc::CoverArm);
        arm1.stmt = stmt.get();
        arm1.aux = 1;
        lowerStmt(branch->elseStmt, clocked);
        prog_.ops[jmp_at].aux = static_cast<int32_t>(here());
        break;
      }
      case StmtKind::Case: {
        const auto *sel = stmt->as<CaseStmt>();
        Slot selector = lowerExpr(sel->selector, 0);
        /** Selector resized once per distinct comparison width. */
        std::map<uint32_t, Slot> selAt;
        auto selSlot = [&](uint32_t cmp_w) {
            auto it = selAt.find(cmp_w);
            if (it != selAt.end())
                return it->second;
            Slot s = resizeTo(selector, cmp_w);
            selAt.emplace(cmp_w, s);
            return s;
        };
        const CaseItem *dflt = nullptr;
        size_t dflt_index = 0;
        /** Jnz op index per item, patched to the arm entry. */
        std::vector<std::pair<uint32_t, size_t>> jumps;
        for (size_t ii = 0; ii < sel->items.size(); ++ii) {
            const CaseItem &item = sel->items[ii];
            if (item.labels.empty()) {
                dflt = &item;
                dflt_index = ii;
                continue;
            }
            for (const auto &label : item.labels) {
                uint32_t cmp_w =
                    std::max(sel->selector->width, label->width);
                if (mutationOn(MUT_SIM_CASE_SEL_WIDTH))
                    cmp_w = sel->selector->width;
                Slot sv = selSlot(cmp_w);
                Slot lv = resizeTo(lowerExpr(label, cmp_w), cmp_w);
                Slot flag = temp(1);
                Op &eq = emitDst(Opc::CmpEq, flag);
                eq.a = sv.off;
                eq.wa = cmp_w;
                eq.b = lv.off;
                eq.wb = cmp_w;
                uint32_t jnz_at = here();
                Op &jnz = emit(Opc::Jnz);
                jnz.a = flag.off;
                jnz.wa = 1;
                jumps.emplace_back(jnz_at, ii);
            }
        }
        uint32_t tail_at = here();
        emit(Opc::Jmp); // to default arm or no-match arm
        std::vector<uint32_t> end_jumps;
        std::vector<uint32_t> arm_entry(sel->items.size(), 0);
        for (size_t ii = 0; ii < sel->items.size(); ++ii) {
            const CaseItem &item = sel->items[ii];
            arm_entry[ii] = here();
            Op &arm = emit(Opc::CoverArm);
            arm.stmt = stmt.get();
            arm.aux = static_cast<int32_t>(ii);
            lowerStmt(item.body, clocked);
            end_jumps.push_back(here());
            emit(Opc::Jmp);
        }
        uint32_t nomatch_at = here();
        if (!dflt) {
            Op &arm = emit(Opc::CoverArm);
            arm.stmt = stmt.get();
            arm.aux = static_cast<int32_t>(sel->items.size());
        }
        uint32_t end_at = here();
        prog_.ops[tail_at].aux = static_cast<int32_t>(
            dflt ? arm_entry[dflt_index] : nomatch_at);
        for (const auto &[at, ii] : jumps)
            prog_.ops[at].aux = static_cast<int32_t>(arm_entry[ii]);
        for (uint32_t at : end_jumps)
            prog_.ops[at].aux = static_cast<int32_t>(end_at);
        break;
      }
      case StmtKind::Assign: {
        const auto *assign = stmt->as<AssignStmt>();
        uint32_t lw = assign->lhs->width;
        uint32_t cw = std::max(lw, assign->rhs->width);
        Slot value = resizeTo(lowerExpr(assign->rhs, cw), lw);
        if (clocked && assign->nonblocking)
            lowerNba(assign->lhs, value);
        else
            lowerStore(assign->lhs, value);
        break;
      }
      case StmtKind::Display: {
        const auto *disp = stmt->as<DisplayStmt>();
        if (!clocked) {
            emit(Opc::WarnDisplay);
            break;
        }
        DisplayDesc dd;
        dd.stmt = disp;
        for (const auto &arg : disp->args) {
            Slot s = lowerExpr(arg, 0);
            dd.args.emplace_back(s.off, s.width);
        }
        Op &op = emit(Opc::Display);
        op.aux = static_cast<int32_t>(prog_.displays.size());
        prog_.displays.push_back(std::move(dd));
        break;
      }
      case StmtKind::Finish:
        emit(Opc::Finish);
        break;
      case StmtKind::Null:
        break;
    }
}

Program
Lowerer::run()
{
    size_t n = design_.numSignals();
    prog_.sigOff.assign(n, 0);
    prog_.arrOff.assign(n, 0);
    for (size_t sig = 0; sig < n; ++sig)
        prog_.sigOff[sig] =
            allocWords(wordsFor(design_.info(static_cast<int>(sig))
                                    .width));
    for (size_t sig = 0; sig < n; ++sig) {
        const SignalInfo &info = design_.info(static_cast<int>(sig));
        if (info.arraySize != 0)
            prog_.arrOff[sig] =
                allocWords(wordsFor(info.width) * info.arraySize);
    }
    prog_.stateWords = slabTop_;

    for (const auto *assign : design_.assigns()) {
        Program::Chunk chunk{here(), 0};
        uint32_t lw = assign->lhs->width;
        uint32_t cw = std::max(lw, assign->rhs->width);
        Slot value = resizeTo(lowerExpr(assign->rhs, cw), lw);
        lowerStore(assign->lhs, value);
        chunk.end = here();
        prog_.assignChunks.push_back(chunk);
    }
    for (const auto *proc : design_.combProcs()) {
        Program::Chunk chunk{here(), 0};
        lowerStmt(proc->body, false);
        chunk.end = here();
        prog_.combChunks.push_back(chunk);
    }
    for (const auto *proc : design_.clockedProcs()) {
        Program::Chunk chunk{here(), 0};
        lowerStmt(proc->body, true);
        chunk.end = here();
        prog_.clockedChunks.push_back(chunk);
    }

    prog_.slabInit.assign(slabTop_, 0);
    for (const auto &[off, value] : constImage_) {
        size_t nw = wordsFor(value.width());
        for (size_t i = 0; i < nw; ++i)
            prog_.slabInit[off + i] =
                i < value.numWords() ? value.rawWords()[i] : 0;
    }
    return std::move(prog_);
}

} // namespace

Program
lowerProgram(const LoweredDesign &design)
{
    return Lowerer(design).run();
}

} // namespace hwdbg::compile
