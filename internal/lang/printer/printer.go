// Package printer renders ALDA ASTs back to canonical source text —
// the formatter behind cmd/aldafmt. Formatting is deterministic and
// idempotent: print(parse(print(parse(src)))) == print(parse(src)).
package printer

import (
	"strconv"
	"strings"

	"repro/internal/lang/ast"
)

// Print renders a program in canonical form: declarations in source
// order, four-space indentation, one statement per line, spaces around
// binary operators, and section-separating blank lines.
func Print(prog *ast.Program) string {
	p := &printer{}
	p.b.Grow(64 * len(prog.Decls))
	var prevKind string
	for _, d := range prog.Decls {
		kind := declKind(d)
		if prevKind != "" && kind != prevKind {
			p.nl()
		}
		p.decl(d)
		prevKind = kind
	}
	return p.b.String()
}

func declKind(d ast.Decl) string {
	switch d.(type) {
	case *ast.ConstDecl:
		return "const"
	case *ast.TypeDecl:
		return "type"
	case *ast.MetaDecl:
		return "meta"
	case *ast.FuncDecl:
		return "func"
	case *ast.InsertDecl:
		return "insert"
	}
	return "?"
}

// printer streams canonical text into one builder; the compiler prints
// every program it compiles (the staged-handler key), so Print stays
// cheap next to a compile.
type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) nl() { p.b.WriteByte('\n') }
func (p *printer) pad() {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
}
func (p *printer) str(ss ...string) {
	for _, s := range ss {
		p.b.WriteString(s)
	}
}
func (p *printer) line(ss ...string) { p.pad(); p.str(ss...); p.nl() }

func (p *printer) decl(d ast.Decl) {
	switch x := d.(type) {
	case *ast.ConstDecl:
		p.line("const ", x.Name, " = ", strconv.FormatInt(x.Value, 10))
	case *ast.TypeDecl:
		p.pad()
		p.str(x.Name, " := ", x.Prim.String())
		if x.Sync {
			p.str(" : sync")
		}
		if x.Domain > 0 {
			p.str(" : ", strconv.FormatInt(x.Domain, 10))
		}
		p.nl()
	case *ast.MetaDecl:
		p.line(x.Name, " = ", x.Type.String())
	case *ast.FuncDecl:
		p.funcDecl(x)
	case *ast.InsertDecl:
		p.insertDecl(x)
	}
}

func (p *printer) funcDecl(d *ast.FuncDecl) {
	p.pad()
	if d.Result != "" {
		p.str(d.Result, " ")
	}
	p.str(d.Name, "(")
	for i, pr := range d.Params {
		if i > 0 {
			p.str(", ")
		}
		p.str(pr.Type, " ", pr.Name)
	}
	p.str(") {")
	p.nl()
	p.indent++
	p.stmts(d.Body)
	p.indent--
	p.line("}")
	p.nl()
}

func (p *printer) stmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		p.stmt(s)
	}
}

func (p *printer) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.IfStmt:
		p.pad()
		p.ifTail(x)
	case *ast.ReturnStmt:
		p.pad()
		p.str("return")
		if x.Value != nil {
			p.str(" ")
			p.expr(x.Value, 0)
		}
		p.str(";")
		p.nl()
	case *ast.ExprStmt:
		p.pad()
		p.expr(x.X, 0)
		p.str(";")
		p.nl()
	}
}

// ifTail prints an if statement from the current column; else-if
// chains render flat (`} else if ...` without re-indenting).
func (p *printer) ifTail(x *ast.IfStmt) {
	p.str("if (")
	p.expr(x.Cond, 0)
	p.str(") {")
	p.nl()
	p.indent++
	p.stmts(x.Then)
	p.indent--
	if len(x.Else) == 0 {
		p.line("}")
		return
	}
	if inner, ok := x.Else[0].(*ast.IfStmt); ok && len(x.Else) == 1 {
		p.pad()
		p.str("} else ")
		p.ifTail(inner)
		return
	}
	p.line("} else {")
	p.indent++
	p.stmts(x.Else)
	p.indent--
	p.line("}")
}

func (p *printer) insertDecl(d *ast.InsertDecl) {
	when := "before"
	if d.After {
		when = "after"
	}
	p.pad()
	p.str("insert ", when, " ")
	if d.PointKind == ast.FuncPoint {
		p.str("func ")
	}
	p.str(d.Point, " call ", d.Handler, "(")
	for i, a := range d.Args {
		if i > 0 {
			p.str(", ")
		}
		p.callArg(a)
	}
	p.str(")")
	p.nl()
}

func (p *printer) callArg(a ast.CallArg) {
	var base string
	switch a.Kind {
	case ast.ArgOperand:
		base = "$" + strconv.Itoa(a.Index)
	case ast.ArgReturn:
		base = "$r"
	case ast.ArgThread:
		base = "$t"
	case ast.ArgAll:
		base = "$p"
	}
	switch {
	case a.Sizeof:
		p.str("sizeof(", base, ")")
	case a.Meta:
		p.str(base, ".m")
	default:
		p.str(base)
	}
}

// expr prints an expression with minimal parentheses: parens appear
// only where a child binds looser than (or equal to, on the right) its
// parent.
func (p *printer) expr(e ast.Expr, parent int) {
	switch x := e.(type) {
	case *ast.Ident:
		p.str(x.Name)
	case *ast.IntLit:
		p.str(strconv.FormatInt(x.Value, 10))
	case *ast.StringLit:
		p.str(strconv.Quote(x.Value))
	case *ast.IndexExpr:
		p.expr(x.X, 9)
		p.str("[")
		p.expr(x.Index, 0)
		p.str("]")
	case *ast.MethodExpr:
		p.expr(x.Recv, 9)
		p.str(".", x.Name, "(")
		p.args(x.Args)
		p.str(")")
	case *ast.CallExpr:
		p.str(x.Name, "(")
		p.args(x.Args)
		p.str(")")
	case *ast.UnaryExpr:
		p.str(x.Op.String())
		p.expr(x.X, 8)
	case *ast.AssignExpr:
		p.expr(x.LHS, 0)
		p.str(" = ")
		p.expr(x.RHS, 0)
	case *ast.BinaryExpr:
		prec := x.Op.Precedence()
		if prec <= parent {
			p.str("(")
		}
		p.expr(x.X, prec-1)
		p.str(" ", x.Op.String(), " ")
		p.expr(x.Y, prec)
		if prec <= parent {
			p.str(")")
		}
	default:
		p.str("?")
	}
}

func (p *printer) args(args []ast.Expr) {
	for i, a := range args {
		if i > 0 {
			p.str(", ")
		}
		p.expr(a, 0)
	}
}

// Format parses-and-prints, reporting parse errors.
func Format(src string, parse func(string) (*ast.Program, error)) (string, error) {
	prog, err := parse(src)
	if err != nil {
		return "", err
	}
	return Print(prog), nil
}
