package sqlparser

import (
	"strconv"
	"strings"

	"trac/internal/types"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSemicolon, "")
	if !p.at(TokEOF, "") {
		return nil, errf(p.cur().Pos, "unexpected trailing input %q", p.cur().Text)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, errf(0, "expected a SELECT statement")
	}
	return sel, nil
}

// ParseExpr parses a standalone expression (used by tests and by tools that
// manipulate predicates directly).
func ParseExpr(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, errf(p.cur().Pos, "unexpected trailing input %q", p.cur().Text)
	}
	return e, nil
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) at(tt TokenType, text string) bool {
	t := p.cur()
	return t.Type == tt && (text == "" || t.Text == text)
}

// accept consumes the current token if it matches and reports whether it did.
func (p *parser) accept(tt TokenType, text string) bool {
	if p.at(tt, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(tt TokenType, text string) (Token, error) {
	if !p.at(tt, text) {
		want := text
		if want == "" {
			want = tt.String()
		}
		return Token{}, errf(p.cur().Pos, "expected %s, found %q", want, p.cur().Text)
	}
	t := p.cur()
	p.pos++
	return t, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.cur()
	if t.Type != TokKeyword {
		return nil, errf(t.Pos, "expected a statement keyword, found %q", t.Text)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "ANALYZE":
		p.pos++
		stmt := &AnalyzeStmt{}
		if p.cur().Type == TokIdent {
			stmt.Table = p.cur().Text
			p.pos++
		}
		return stmt, nil
	default:
		return nil, errf(t.Pos, "unsupported statement %q", t.Text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	sel, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "UNION") {
		// UNION ALL keeps duplicates; plain UNION is set union. The engine
		// treats both as set union plus DISTINCT handling downstream; we
		// record ALL by marking the child non-distinct.
		p.accept(TokKeyword, "ALL")
		next, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		sel.Union = append(sel.Union, next)
	}
	// ORDER BY / LIMIT apply to the whole union.
	if err := p.parseOrderLimit(sel); err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *parser) parseSelectCore() (*SelectStmt, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	sel.Distinct = p.accept(TokKeyword, "DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokComma, "") {
			break
		}
	}
	if p.accept(TokKeyword, "FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.accept(TokComma, "") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.accept(TokComma, "") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	return sel, nil
}

func (p *parser) parseOrderLimit(sel *SelectStmt) error {
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			item := OrderItem{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokComma, "") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return errf(t.Pos, "bad LIMIT value %q", t.Text)
		}
		sel.Limit = &n
	}
	return nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form.
	if p.cur().Type == TokIdent && p.peek().Type == TokDot {
		save := p.pos
		tbl := p.cur().Text
		p.pos += 2
		if p.accept(TokOp, "*") {
			return SelectItem{Star: true, Table: tbl}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(TokKeyword, "AS") {
		t, err := p.expectIdentLike()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t
	} else if p.cur().Type == TokIdent {
		item.Alias = p.cur().Text
		p.pos++
	}
	return item, nil
}

// expectIdentLike accepts an identifier, or a keyword used as a name (e.g. a
// column alias called "timestamp").
func (p *parser) expectIdentLike() (string, error) {
	t := p.cur()
	if t.Type == TokIdent {
		p.pos++
		return t.Text, nil
	}
	if t.Type == TokKeyword && identOKKeyword(t.Text) {
		p.pos++
		return strings.ToLower(t.Text), nil
	}
	return "", errf(t.Pos, "expected identifier, found %q", t.Text)
}

// identOKKeyword lists keywords permitted as identifiers where unambiguous.
func identOKKeyword(kw string) bool {
	switch kw {
	case "TIMESTAMP", "KEY", "COUNT", "MIN", "MAX", "SUM", "AVG", "VALUES", "ALL":
		return true
	default:
		return false
	}
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdentLike()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.accept(TokKeyword, "AS") {
		a, err := p.expectIdentLike()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a
	} else if p.cur().Type == TokIdent {
		ref.Alias = p.cur().Text
		p.pos++
	}
	return ref, nil
}

// ---------------------------------------------------------------------------
// Expression grammar (precedence climbing):
//   expr     := orExpr
//   orExpr   := andExpr (OR andExpr)*
//   andExpr  := notExpr (AND notExpr)*
//   notExpr  := NOT notExpr | predicate
//   predicate:= addExpr [cmp addExpr | [NOT] IN (...) | [NOT] BETWEEN .. AND ..
//               | [NOT] LIKE addExpr | IS [NOT] NULL]
//   addExpr  := mulExpr ((+|-) mulExpr)*
//   mulExpr  := unary ((*|/) unary)*
//   unary    := - unary | primary
//   primary  := literal | columnRef | func(...) | ( expr )

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Logical{Op: LogicOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Logical{Op: LogicAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{Expr: inner}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// Comparison operators.
	if p.cur().Type == TokOp {
		if op, ok := cmpOpFromText(p.cur().Text); ok {
			p.pos++
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Comparison{Op: op, Left: left, Right: right}, nil
		}
	}
	negated := false
	if p.at(TokKeyword, "NOT") {
		next := p.peek()
		if next.Type == TokKeyword && (next.Text == "IN" || next.Text == "BETWEEN" || next.Text == "LIKE") {
			p.pos++
			negated = true
		}
	}
	switch {
	case p.accept(TokKeyword, "IN"):
		if _, err := p.expect(TokLParen, ""); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			item, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			list = append(list, item)
			if !p.accept(TokComma, "") {
				break
			}
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		return &In{Expr: left, List: list, Negated: negated}, nil
	case p.accept(TokKeyword, "BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Between{Expr: left, Lo: lo, Hi: hi, Negated: negated}, nil
	case p.accept(TokKeyword, "LIKE"):
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Like{Expr: left, Pattern: pat, Negated: negated}, nil
	case p.accept(TokKeyword, "IS"):
		neg := p.accept(TokKeyword, "NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{Expr: left, Negated: neg}, nil
	}
	if negated {
		return nil, errf(p.cur().Pos, "dangling NOT before %q", p.cur().Text)
	}
	return left, nil
}

func cmpOpFromText(s string) (CmpOp, bool) {
	switch s {
	case "=":
		return CmpEq, true
	case "<>":
		return CmpNe, true
	case "<":
		return CmpLt, true
	case "<=":
		return CmpLe, true
	case ">":
		return CmpGt, true
	case ">=":
		return CmpGe, true
	default:
		return 0, false
	}
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op ArithOp
		switch {
		case p.accept(TokOp, "+"):
			op = ArithAdd
		case p.accept(TokOp, "-"):
			op = ArithSub
		default:
			return left, nil
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &Arith{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ArithOp
		switch {
		case p.accept(TokOp, "*"):
			op = ArithMul
		case p.accept(TokOp, "/"):
			op = ArithDiv
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Arith{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TokOp, "-") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation into numeric literals; otherwise 0 - x.
		if lit, ok := inner.(*Literal); ok {
			switch lit.Val.Kind() {
			case types.KindInt:
				return &Literal{Val: types.NewInt(-lit.Val.Int())}, nil
			case types.KindFloat:
				return &Literal{Val: types.NewFloat(-lit.Val.Float())}, nil
			}
		}
		return &Arith{Op: ArithSub, Left: &Literal{Val: types.NewInt(0)}, Right: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Type {
	case TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, errf(t.Pos, "bad number %q", t.Text)
			}
			return &Literal{Val: types.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad number %q", t.Text)
		}
		return &Literal{Val: types.NewInt(n)}, nil
	case TokString:
		p.pos++
		return &Literal{Val: types.NewString(t.Text)}, nil
	case TokLParen:
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		return e, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return &Literal{Val: types.Null}, nil
		case "TRUE":
			p.pos++
			return &Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: types.NewBool(false)}, nil
		case "TIMESTAMP":
			// TIMESTAMP 'literal'.
			if p.peek().Type == TokString {
				p.pos++
				s := p.cur()
				p.pos++
				ts, err := types.ParseTime(s.Text)
				if err != nil {
					return nil, errf(s.Pos, "bad timestamp literal %q", s.Text)
				}
				return &Literal{Val: types.NewTime(ts)}, nil
			}
			// "timestamp" used as a column name.
			return p.parseColumnOrCall()
		case "COUNT", "MIN", "MAX", "SUM", "AVG":
			if p.peek().Type == TokLParen {
				return p.parseFuncCall()
			}
			return p.parseColumnOrCall()
		}
		return nil, errf(t.Pos, "unexpected keyword %q in expression", t.Text)
	case TokIdent:
		return p.parseColumnOrCall()
	default:
		return nil, errf(t.Pos, "unexpected %s in expression", t.Type)
	}
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := FuncName(p.cur().Text)
	p.pos++
	if _, err := p.expect(TokLParen, ""); err != nil {
		return nil, err
	}
	if p.accept(TokOp, "*") {
		if name != FuncCount {
			return nil, errf(p.cur().Pos, "%s(*) is only valid for COUNT", name)
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		return &FuncCall{Name: name, Star: true}, nil
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen, ""); err != nil {
		return nil, err
	}
	return &FuncCall{Name: name, Arg: arg}, nil
}

func (p *parser) parseColumnOrCall() (Expr, error) {
	name, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	if p.accept(TokDot, "") {
		col, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Column: col}, nil
	}
	return &ColumnRef{Column: name}, nil
}

// ---------------------------------------------------------------------------
// DDL / DML

func (p *parser) parseInsert() (Statement, error) {
	p.pos++ // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name}
	if p.accept(TokLParen, "") {
		for {
			col, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.accept(TokComma, "") {
				break
			}
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokLParen, ""); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokComma, "") {
				break
			}
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.accept(TokComma, "") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.pos++ // UPDATE
	name, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, Assignment{Column: col, Value: val})
		if !p.accept(TokComma, "") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.pos++ // DELETE
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.pos++ // CREATE
	switch {
	case p.accept(TokKeyword, "TABLE"):
		name, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen, ""); err != nil {
			return nil, err
		}
		stmt := &CreateTableStmt{Name: name}
		for {
			// Table-level CHECK / CONSTRAINT name CHECK.
			if p.at(TokKeyword, "CHECK") || p.at(TokKeyword, "CONSTRAINT") {
				ck, err := p.parseCheck()
				if err != nil {
					return nil, err
				}
				stmt.Checks = append(stmt.Checks, ck)
				if !p.accept(TokComma, "") {
					break
				}
				continue
			}
			colName, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			kind, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			def := ColumnDef{Name: colName, Type: kind}
			if p.accept(TokKeyword, "PRIMARY") {
				if _, err := p.expect(TokKeyword, "KEY"); err != nil {
					return nil, err
				}
				def.PrimaryKey = true
			}
			stmt.Columns = append(stmt.Columns, def)
			if !p.accept(TokComma, "") {
				break
			}
		}
		rp, err := p.expect(TokRParen, "")
		if err != nil {
			return nil, err
		}
		// A table of CHECKs alone has no row to check and no SQL() text that
		// parses back, which is what the WAL replays.
		if len(stmt.Columns) == 0 {
			return nil, errf(rp.Pos, "CREATE TABLE %s has no columns", name)
		}
		return stmt, nil
	case p.accept(TokKeyword, "INDEX"):
		name, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen, ""); err != nil {
			return nil, err
		}
		col, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Column: col}, nil
	default:
		return nil, errf(p.cur().Pos, "expected TABLE or INDEX after CREATE")
	}
}

// parseCheck parses [CONSTRAINT name] CHECK ( expr ).
func (p *parser) parseCheck() (CheckDef, error) {
	var ck CheckDef
	if p.accept(TokKeyword, "CONSTRAINT") {
		name, err := p.expectIdentLike()
		if err != nil {
			return ck, err
		}
		ck.Name = name
	}
	if _, err := p.expect(TokKeyword, "CHECK"); err != nil {
		return ck, err
	}
	if _, err := p.expect(TokLParen, ""); err != nil {
		return ck, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return ck, err
	}
	if _, err := p.expect(TokRParen, ""); err != nil {
		return ck, err
	}
	ck.Expr = e
	return ck, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.pos++ // DROP
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name}, nil
}

func (p *parser) parseTypeName() (types.Kind, error) {
	t := p.cur()
	if t.Type != TokKeyword {
		return 0, errf(t.Pos, "expected a type name, found %q", t.Text)
	}
	p.pos++
	switch t.Text {
	case "BIGINT", "INT", "INTEGER":
		return types.KindInt, nil
	case "DOUBLE", "FLOAT":
		return types.KindFloat, nil
	case "TEXT":
		return types.KindString, nil
	case "VARCHAR":
		// Optional length, ignored.
		if p.accept(TokLParen, "") {
			if _, err := p.expect(TokNumber, ""); err != nil {
				return 0, err
			}
			if _, err := p.expect(TokRParen, ""); err != nil {
				return 0, err
			}
		}
		return types.KindString, nil
	case "BOOLEAN":
		return types.KindBool, nil
	case "TIMESTAMP":
		return types.KindTime, nil
	default:
		return 0, errf(t.Pos, "unsupported type %q", t.Text)
	}
}
