#include "hdl/printer.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/testhooks.hh"

namespace hwdbg::hdl
{

namespace
{

std::string
indentStr(int indent)
{
    return std::string(static_cast<size_t>(indent) * 4, ' ');
}

int
precedence(BinaryOp op)
{
    switch (op) {
      case BinaryOp::LogOr: return 1;
      case BinaryOp::LogAnd: return 2;
      case BinaryOp::BitOr: return 3;
      case BinaryOp::BitXor: return 4;
      case BinaryOp::BitAnd: return 5;
      case BinaryOp::Eq:
      case BinaryOp::Ne: return 6;
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge: return 7;
      case BinaryOp::Shl:
      case BinaryOp::Shr: return 8;
      case BinaryOp::Add:
      case BinaryOp::Sub: return 9;
      case BinaryOp::Mul:
      case BinaryOp::Div:
      case BinaryOp::Mod: return 10;
    }
    return 0;
}

const char *
binOpText(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add: return "+";
      case BinaryOp::Sub: return "-";
      case BinaryOp::Mul: return "*";
      case BinaryOp::Div: return "/";
      case BinaryOp::Mod: return "%";
      case BinaryOp::BitAnd: return "&";
      case BinaryOp::BitOr: return "|";
      case BinaryOp::BitXor: return "^";
      case BinaryOp::LogAnd: return "&&";
      case BinaryOp::LogOr: return "||";
      case BinaryOp::Eq: return "==";
      case BinaryOp::Ne: return "!=";
      case BinaryOp::Lt: return "<";
      case BinaryOp::Le: return "<=";
      case BinaryOp::Gt: return ">";
      case BinaryOp::Ge: return ">=";
      case BinaryOp::Shl:
        return mutationOn(MUT_PRINT_SHL_AS_SHR) ? ">>" : "<<";
      case BinaryOp::Shr: return ">>";
    }
    return "?";
}

const char *
unOpText(UnaryOp op)
{
    switch (op) {
      case UnaryOp::Neg: return "-";
      case UnaryOp::LogNot: return "!";
      case UnaryOp::BitNot: return "~";
      case UnaryOp::RedAnd: return "&";
      case UnaryOp::RedOr: return "|";
      case UnaryOp::RedXor: return "^";
    }
    return "?";
}

/** Print with parentheses when the context binds tighter. */
std::string
printPrec(const ExprPtr &expr, int min_prec)
{
    std::string text = printExpr(expr);
    bool needs_parens = false;
    if (expr->kind == ExprKind::Binary)
        needs_parens = precedence(expr->as<BinaryExpr>()->op) < min_prec;
    else if (expr->kind == ExprKind::Ternary)
        needs_parens = min_prec > 0;
    return needs_parens ? "(" + text + ")" : text;
}

std::string
escapeString(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          default: out.push_back(c); break;
        }
    }
    return out;
}

std::string
printRange(const AstRange &range)
{
    std::string out = "[";
    out += printExpr(range.msb);
    out += ":";
    out += printExpr(range.lsb);
    out += "]";
    return out;
}

} // namespace

std::string
printExpr(const ExprPtr &expr)
{
    if (!expr)
        panic("printExpr: null expression");
    switch (expr->kind) {
      case ExprKind::Number: {
        const auto *num = expr->as<NumberExpr>();
        if (!num->sized || mutationOn(MUT_PRINT_UNSIZED_NUM))
            return num->value.toDecString();
        return num->value.toVerilog();
      }
      case ExprKind::Id:
        return expr->as<IdExpr>()->name;
      case ExprKind::Unary: {
        const auto *un = expr->as<UnaryExpr>();
        std::string arg = printExpr(un->arg);
        bool simple = un->arg->kind == ExprKind::Id ||
                      un->arg->kind == ExprKind::Number ||
                      un->arg->kind == ExprKind::Index ||
                      un->arg->kind == ExprKind::Range ||
                      un->arg->kind == ExprKind::Concat;
        if (!simple)
            arg = "(" + arg + ")";
        return std::string(unOpText(un->op)) + arg;
      }
      case ExprKind::Binary: {
        const auto *bin = expr->as<BinaryExpr>();
        int prec = precedence(bin->op);
        int rhs_prec = mutationOn(MUT_PRINT_DROP_PARENS) ? prec
                                                          : prec + 1;
        return printPrec(bin->lhs, prec) + " " + binOpText(bin->op) + " " +
               printPrec(bin->rhs, rhs_prec);
      }
      case ExprKind::Ternary: {
        const auto *tern = expr->as<TernaryExpr>();
        return printPrec(tern->cond, 1) + " ? " +
               printPrec(tern->thenExpr, 1) + " : " +
               printPrec(tern->elseExpr, 0);
      }
      case ExprKind::Concat: {
        const auto *cat = expr->as<ConcatExpr>();
        std::string out = "{";
        for (size_t i = 0; i < cat->parts.size(); ++i) {
            if (i)
                out += ", ";
            out += printExpr(cat->parts[i]);
        }
        return out + "}";
      }
      case ExprKind::Repeat: {
        const auto *rep = expr->as<RepeatExpr>();
        return "{" + printExpr(rep->count) + "{" + printExpr(rep->inner) +
               "}}";
      }
      case ExprKind::Index: {
        const auto *idx = expr->as<IndexExpr>();
        return idx->base + "[" + printExpr(idx->index) + "]";
      }
      case ExprKind::Range: {
        const auto *range = expr->as<RangeExpr>();
        return range->base + "[" + printExpr(range->msb) + ":" +
               printExpr(range->lsb) + "]";
      }
    }
    return "?";
}

std::string
printStmt(const StmtPtr &stmt, int indent)
{
    std::string pad = indentStr(indent);
    if (!stmt)
        panic("printStmt: null statement");
    switch (stmt->kind) {
      case StmtKind::Block: {
        const auto *block = stmt->as<BlockStmt>();
        std::string out = pad + "begin\n";
        for (const auto &sub : block->stmts)
            out += printStmt(sub, indent + 1);
        out += pad + "end\n";
        return out;
      }
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        std::string out =
            pad + "if (" + printExpr(branch->cond) + ")\n";
        out += printStmt(branch->thenStmt, indent + 1);
        if (branch->elseStmt) {
            out += pad + "else\n";
            out += printStmt(branch->elseStmt, indent + 1);
        }
        return out;
      }
      case StmtKind::Case: {
        const auto *sel = stmt->as<CaseStmt>();
        std::string out = pad + (sel->isCasez ? "casez (" : "case (") +
                          printExpr(sel->selector) + ")\n";
        for (const auto &item : sel->items) {
            std::string label;
            if (item.labels.empty()) {
                label = "default";
            } else {
                for (size_t i = 0; i < item.labels.size(); ++i) {
                    if (i)
                        label += ", ";
                    label += printExpr(item.labels[i]);
                }
            }
            out += indentStr(indent + 1) + label + ":\n";
            out += printStmt(item.body, indent + 2);
        }
        out += pad + "endcase\n";
        return out;
      }
      case StmtKind::Assign: {
        const auto *assign = stmt->as<AssignStmt>();
        return pad + printExpr(assign->lhs) +
               (assign->nonblocking ? " <= " : " = ") +
               printExpr(assign->rhs) + ";\n";
      }
      case StmtKind::Display: {
        const auto *disp = stmt->as<DisplayStmt>();
        std::string out =
            pad + "$display(\"" + escapeString(disp->format) + "\"";
        for (const auto &arg : disp->args)
            out += ", " + printExpr(arg);
        return out + ");\n";
      }
      case StmtKind::Finish:
        return pad + "$finish;\n";
      case StmtKind::Null:
        return pad + ";\n";
    }
    return "";
}

std::string
printItem(const ItemPtr &item, int indent)
{
    std::string pad = indentStr(indent);
    switch (item->kind) {
      case ItemKind::Param: {
        const auto *param = item->as<ParamItem>();
        if (param->inHeader)
            return ""; // printed in the module header
        return pad + (param->isLocal ? "localparam " : "parameter ") +
               param->name + " = " + printExpr(param->value) + ";\n";
      }
      case ItemKind::Net: {
        const auto *net = item->as<NetItem>();
        if (net->dir != PortDir::None)
            return ""; // printed in the module header (ANSI style)
        std::string out =
            pad + (net->net == NetKind::Reg ? "reg " : "wire ");
        if (net->range)
            out += printRange(*net->range) + " ";
        out += net->name;
        if (net->array)
            out += " " + printRange(*net->array);
        return out + ";\n";
      }
      case ItemKind::ContAssign: {
        const auto *assign = item->as<ContAssignItem>();
        return pad + "assign " + printExpr(assign->lhs) + " = " +
               printExpr(assign->rhs) + ";\n";
      }
      case ItemKind::Always: {
        const auto *always = item->as<AlwaysItem>();
        std::string out = pad + "always @";
        if (always->isComb) {
            out += "*";
        } else {
            out += "(";
            for (size_t i = 0; i < always->sens.size(); ++i) {
                if (i)
                    out += " or ";
                out += always->sens[i].edge == EdgeKind::Posedge
                           ? "posedge "
                           : "negedge ";
                out += always->sens[i].signal;
            }
            out += ")";
        }
        out += "\n" + printStmt(always->body, indent + 1);
        return out;
      }
      case ItemKind::Instance: {
        const auto *inst = item->as<InstanceItem>();
        std::string out = pad + inst->moduleName;
        if (!inst->paramOverrides.empty()) {
            out += " #(";
            for (size_t i = 0; i < inst->paramOverrides.size(); ++i) {
                if (i)
                    out += ", ";
                out += "." + inst->paramOverrides[i].first + "(" +
                       printExpr(inst->paramOverrides[i].second) + ")";
            }
            out += ")";
        }
        out += " " + inst->instName + " (\n";
        for (size_t i = 0; i < inst->conns.size(); ++i) {
            out += indentStr(indent + 1) + "." + inst->conns[i].formal +
                   "(";
            if (inst->conns[i].actual)
                out += printExpr(inst->conns[i].actual);
            out += ")";
            if (i + 1 < inst->conns.size())
                out += ",";
            out += "\n";
        }
        out += pad + ");\n";
        return out;
      }
    }
    return "";
}

std::string
printModule(const Module &mod)
{
    std::string out = "module " + mod.name;

    // Header parameters.
    std::vector<const ParamItem *> header_params;
    for (const auto &item : mod.items)
        if (item->kind == ItemKind::Param &&
            item->as<ParamItem>()->inHeader)
            header_params.push_back(item->as<ParamItem>());
    if (!header_params.empty()) {
        out += " #(\n";
        for (size_t i = 0; i < header_params.size(); ++i) {
            out += indentStr(1) + "parameter " + header_params[i]->name +
                   " = " + printExpr(header_params[i]->value);
            if (i + 1 < header_params.size())
                out += ",";
            out += "\n";
        }
        out += ")";
    }

    // ANSI port list.
    out += " (\n";
    for (size_t i = 0; i < mod.ports.size(); ++i) {
        const NetItem *net = mod.findNet(mod.ports[i]);
        if (!net)
            panic("port '%s' of module '%s' has no declaration",
                  mod.ports[i].c_str(), mod.name.c_str());
        out += indentStr(1);
        out += net->dir == PortDir::Input ? "input " : "output ";
        out += net->net == NetKind::Reg ? "reg " : "wire ";
        if (net->range)
            out += printRange(*net->range) + " ";
        out += net->name;
        if (i + 1 < mod.ports.size())
            out += ",";
        out += "\n";
    }
    out += ");\n";

    for (const auto &item : mod.items)
        out += printItem(item, 1);
    out += "endmodule\n";
    return out;
}

std::string
printDesign(const Design &design)
{
    std::string out;
    for (size_t i = 0; i < design.modules.size(); ++i) {
        if (i)
            out += "\n";
        out += printModule(*design.modules[i]);
    }
    return out;
}

int
countCodeLines(const std::string &text)
{
    int count = 0;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        bool blank = true;
        for (char c : line)
            if (c != ' ' && c != '\t' && c != '\r') {
                blank = false;
                break;
            }
        if (!blank)
            ++count;
    }
    return count;
}

} // namespace hwdbg::hdl
