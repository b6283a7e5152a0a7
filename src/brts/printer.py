"""Pretty-printer for programs; the right inverse of the parser.

Printing then reparsing yields the same tree up to source spans, which is
what the round-trip tests pin down.
"""

from __future__ import annotations

from .presburger import And, Formula, TRUE, render, render_term
from .record import replace
from . import syntax as ast

INDENT = "    "


def print_program(program: ast.Program) -> str:
    return "\n".join(print_state(s, 0) for s in program.states) + "\n"


def print_state(st: ast.StateDecl, depth: int) -> str:
    pad = INDENT * depth
    head = f"{pad}state {st.name}"
    if st.parent:
        head += f" case of {st.parent}"
    if not st.decls:
        return head + " { }"
    lines = [head + " {"]
    for d in st.decls:
        lines.append(print_decl(d, depth + 1))
    lines.append(pad + "}")
    return "\n".join(lines)


def print_decl(d: ast.Decl, depth: int) -> str:
    pad = INDENT * depth
    match d:
        case ast.StateDecl():
            return print_state(d, depth)
        case ast.TypeFamDecl(name, coords, bound):
            return f"{pad}type {name} : Pi(phi({', '.join(coords)}), {bound});"
        case ast.FieldDecl(mutable, ty, name, init):
            kw = "var" if mutable else "val"
            txt = f"{pad}{kw} {print_type(ty)} {name}"
            if init is not None:
                txt += f" = {print_expr(init)}"
            return txt + ";"
        case ast.MethodDecl(ret, name, params, env, body):
            ps = ", ".join(f"{print_type(p.change)} {p.name}" for p in params)
            es = ", ".join(f"{print_type(p.change)} {p.name}" for p in env)
            head = f"{pad}{print_type(ret)} {name}({ps})[{es}]"
            if body is None:
                return head + ";"
            return head + " " + print_block(body, depth)
    raise TypeError(f"not a declaration: {d!r}")


def print_type(ty: ast.Type) -> str:
    match ty:
        case ast.PrimType(name):
            return name
        case ast.StateRef(name):
            return name
        case ast.WildcardType():
            return "_"
        case ast.PermPair(perm, inner):
            return f"({perm}, {print_type(inner)})"
        case ast.ChangeType(pre, post):
            return f"{print_type(pre)} >> {print_type(post)}"
        case ast.InstanceType(family, args, constraint, state):
            lit = print_formula_literal(args, constraint)
            if family is None:
                return state if not args and constraint == TRUE else f"{state}({lit})"
            return f"{family}({lit}, {state})"
        case ast.UnionType(members):
            return " | ".join(print_type(m) for m in members)
    raise TypeError(f"not a type: {ty!r}")


def print_formula_literal(args: tuple, constraint: Formula) -> str:
    pieces = [render_term(a) for a in args]
    if constraint != TRUE:
        if isinstance(constraint, And):
            pieces.extend(render(p) for p in constraint.parts)
        else:
            pieces.append(render(constraint))
    return f"phi({', '.join(pieces)})"


def print_block(block: ast.Block, depth: int) -> str:
    if not block.stmts:
        return "{ }"
    lines = ["{"]
    lines.extend(print_stmt(s, depth + 1) + ";" for s in block.stmts)
    lines.append(INDENT * depth + "}")
    return "\n".join(lines)


def print_stmt(e: ast.Expr, depth: int) -> str:
    pad = INDENT * depth
    match e:
        case ast.VarDecl(name, declared, init, mutable):
            kw = "var" if mutable else "val"
            ty = "" if declared is None else print_type(declared) + " "
            return f"{pad}{kw} {ty}{name} = {print_expr(init)}"
        case ast.Let(name, init, body):
            return (f"{pad}let {name} = {print_expr(init)} in\n"
                    + print_stmt(body, depth + 1))
        case ast.FieldAssign(target, name, value, body):
            return (f"{pad}let {target}.{name} = {print_expr(value)} in\n"
                    + print_stmt(body, depth + 1))
        case ast.Update(target, source):
            return f"{pad}{print_expr(target)} <- {print_expr(source)}"
        case ast.While(bound, inv, cond, body):
            names = ", ".join(bound)
            prefix = f"exists {names}." if names else "exists."
            return (f"{pad}while [{prefix} {render(inv)}] ({print_expr(cond)}) "
                    + print_block(body, depth))
        case ast.Match(scrut, scope, arms, default):
            head = print_expr(scrut) if scope is None else f"{print_expr(scrut)} : {scope}"
            lines = [f"{pad}match ({head}) {{"]
            for arm in arms:
                lines.append(f"{INDENT * (depth + 1)}case {arm.state} "
                             + print_block(arm.body, depth + 1))
            if default is not None:
                lines.append(f"{INDENT * (depth + 1)}default "
                             + print_block(default, depth + 1))
            lines.append(pad + "}")
            return "\n".join(lines)
        case ast.CaseExpr(scrut, body):
            return f"{pad}case {print_expr(scrut)} " + print_block(body, depth)
        case _:
            return pad + print_expr(e)


def print_expr(e: ast.Expr) -> str:
    match e:
        case ast.IntLit(v):
            return str(v)
        case ast.BoolLit(v):
            return "true" if v else "false"
        case ast.StrLit(v):
            escaped = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            return f'"{escaped}"'
        case ast.VarRef(name):
            return name
        case ast.NewObj(state, inst, ctor_args):
            if inst is not None:
                return f"new {state}({print_formula_literal(inst.args, inst.constraint)})"
            inner = ", ".join(print_expr(a) for a in ctor_args)
            return f"new {state}({inner})"
        case ast.TypestateLit(perm, inst):
            return f"({perm}, {print_type(inst)})"
        case ast.FieldRef(obj, name):
            return f"{print_expr(obj)}.{name}"
        case ast.MethodCall(recv, method, args):
            inner = ", ".join(print_expr(a) for a in args)
            return f"{print_expr(recv)}.{method}({inner})"
    raise TypeError(f"not printable as an inline expression: {e!r}")


def strip_spans(node):
    """Structural copy with every span reset; lets tests compare parse trees."""
    from .diagnostics import NO_SPAN, Span

    if isinstance(node, Span):
        return NO_SPAN
    fields = getattr(node, "_fields", None)
    if fields is not None:
        return replace(node, **{n: strip_spans(getattr(node, n)) for n in fields})
    if isinstance(node, tuple):
        return tuple(strip_spans(x) for x in node)
    return node
