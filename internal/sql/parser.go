package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/opt"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/tuple"
)

// Parse turns a SQL string into an optimizer query, resolving table and
// column references against the catalog and coercing literals to column
// types (so '2007-06-01' compared to a DATE column becomes a date).
func Parse(cat *catalog.Catalog, src string) (*opt.Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{cat: cat, toks: toks}
	q, err := p.parseSelect()
	if err != nil {
		return nil, fmt.Errorf("%w (near %q)", err, p.near())
	}
	return q, nil
}

type parser struct {
	cat  *catalog.Catalog
	toks []token
	pos  int

	tables       []*catalog.Table
	selectRefs   []columnRef // deferred validation (FROM parses after SELECT)
	sawAggInList bool        // "SELECT g, AGG(c)" form: GROUP BY required

	// Prepared-statement support (ParseTemplate only).
	allowParams   bool
	params        []ParamSite    // every placeholder site, in source order
	pending       []pendingParam // sites of the atom currently being parsed
	nextOrdinal   int            // next ordinal for '?' placeholders
	sawPositional bool
	sawNumbered   bool
}

// pendingParam is a placeholder seen while parsing one atom's literals; it
// becomes a ParamSite once addAtom knows the atom's side and index.
type pendingParam struct {
	ordinal int
	slot    int
	kind    tuple.Kind
}

func (p *parser) cur() token {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF token
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) near() string {
	t := p.cur()
	if t.kind == tokEOF {
		return "end of input"
	}
	return t.text
}

func (p *parser) expectIdent(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("sql: expected %s", strings.ToUpper(kw))
	}
	return nil
}

func (p *parser) expectSymbol(s string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != s {
		return fmt.Errorf("sql: expected %q", s)
	}
	return nil
}

func (p *parser) acceptIdent(kw string) bool {
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw) {
		p.pos++
		return true
	}
	return false
}

// parseSelect: SELECT agg(col) FROM t [, t2] [WHERE conjuncts]
func (p *parser) parseSelect() (*opt.Query, error) {
	if err := p.expectIdent("select"); err != nil {
		return nil, err
	}
	q := &opt.Query{}
	if err := p.parseSelectList(q); err != nil {
		return nil, err
	}

	if err := p.expectIdent("from"); err != nil {
		return nil, err
	}
	t1 := p.next()
	if t1.kind != tokIdent {
		return nil, fmt.Errorf("sql: expected table name")
	}
	tab1, ok := p.cat.Table(t1.text)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", t1.text)
	}
	q.Table = tab1.Name
	p.tables = append(p.tables, tab1)
	if p.cur().kind == tokSymbol && p.cur().text == "," {
		p.pos++
		t2 := p.next()
		if t2.kind != tokIdent {
			return nil, fmt.Errorf("sql: expected second table name")
		}
		tab2, ok := p.cat.Table(t2.text)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", t2.text)
		}
		q.Table2 = tab2.Name
		p.tables = append(p.tables, tab2)
	}

	if p.acceptIdent("where") {
		if err := p.parseWhere(q); err != nil {
			return nil, err
		}
	}
	if p.acceptIdent("group") {
		if err := p.expectIdent("by"); err != nil {
			return nil, err
		}
		ref, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.resolve(ref); err != nil {
			return nil, err
		}
		if !p.sawAggInList || len(q.SelectCols) != 1 {
			return nil, fmt.Errorf("sql: GROUP BY requires a select list of the form <col>, <agg>(...)")
		}
		if !strings.EqualFold(q.SelectCols[0], ref.qualified()) {
			return nil, fmt.Errorf("sql: GROUP BY column %q must match the selected column %q",
				ref.qualified(), q.SelectCols[0])
		}
		q.GroupBy = ref.qualified()
	} else if p.sawAggInList {
		return nil, fmt.Errorf("sql: select list mixes columns and an aggregate without GROUP BY")
	}
	if p.acceptIdent("order") {
		if err := p.expectIdent("by"); err != nil {
			return nil, err
		}
		if !q.IsProjection() {
			return nil, fmt.Errorf("sql: ORDER BY requires a column select list")
		}
		ref, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.resolve(ref); err != nil {
			return nil, err
		}
		q.OrderBy = ref.qualified()
		if p.acceptIdent("desc") {
			q.OrderDesc = true
		} else {
			p.acceptIdent("asc")
		}
	}
	if p.acceptIdent("limit") {
		if !q.IsProjection() && !q.IsGrouped() {
			return nil, fmt.Errorf("sql: LIMIT requires a column select list")
		}
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: expected LIMIT count, got %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.text)
		}
		q.Limit = n
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("sql: trailing input")
	}
	if q.Table2 != "" && q.JoinCol == "" {
		return nil, fmt.Errorf("sql: two tables but no join predicate")
	}
	// Select-list columns could not be validated before FROM was parsed.
	for _, ref := range p.selectRefs {
		if _, err := p.resolve(ref); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// parseSelectList parses `*`, a column list, or one aggregate call.
func (p *parser) parseSelectList(q *opt.Query) error {
	if p.cur().kind == tokSymbol && p.cur().text == "*" {
		p.pos++
		q.Star = true
		return nil
	}
	first := p.cur()
	if first.kind != tokIdent {
		return fmt.Errorf("sql: expected select list, got %q", first.text)
	}
	// Pure aggregate form: IDENT '(' with nothing before it.
	if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
		return p.parseAggCall(q)
	}
	// Column list form: parse refs separated by commas. A
	// trailing aggregate call turns the list into the grouped form
	// `SELECT g, AGG(c) ... GROUP BY g`.
	for {
		// Aggregate call in the list position?
		if p.cur().kind == tokIdent && p.pos+1 < len(p.toks) &&
			p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			if err := p.parseAggCall(q); err != nil {
				return err
			}
			p.sawAggInList = true
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				return fmt.Errorf("sql: the aggregate must be last in the select list")
			}
			return nil
		}
		ref, err := p.parseColumnRef()
		if err != nil {
			return err
		}
		p.selectRefs = append(p.selectRefs, ref)
		q.SelectCols = append(q.SelectCols, ref.qualified())
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.pos++
			continue
		}
		return nil
	}
}

// parseAggCall parses AGG '(' (col | '*') ')' into q.Agg/q.AggCol.
func (p *parser) parseAggCall(q *opt.Query) error {
	name := p.next()
	switch strings.ToLower(name.text) {
	case "count":
		q.Agg = plan.CountAgg
	case "sum":
		q.Agg = plan.SumAgg
	case "min":
		q.Agg = plan.MinAgg
	case "max":
		q.Agg = plan.MaxAgg
	default:
		return fmt.Errorf("sql: unknown aggregate %q", name.text)
	}
	if err := p.expectSymbol("("); err != nil {
		return err
	}
	if p.cur().kind == tokSymbol && p.cur().text == "*" {
		if q.Agg != plan.CountAgg {
			return fmt.Errorf("sql: %s(*) is not valid", name.text)
		}
		p.pos++
	} else {
		col, err := p.parseColumnRef()
		if err != nil {
			return err
		}
		// Keep the qualifier: join schemas qualify column names, so
		// COUNT(t.padding) must resolve against "t.padding".
		q.AggCol = col.qualified()
	}
	return p.expectSymbol(")")
}

// columnRef is a possibly-qualified column reference.
type columnRef struct {
	table string // "" if unqualified
	name  string
}

// qualified renders the reference as "table.col" or "col".
func (r columnRef) qualified() string {
	if r.table != "" {
		return r.table + "." + r.name
	}
	return r.name
}

func (p *parser) parseColumnRef() (columnRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return columnRef{}, fmt.Errorf("sql: expected column name, got %q", t.text)
	}
	if p.cur().kind == tokSymbol && p.cur().text == "." {
		p.pos++
		c := p.next()
		if c.kind != tokIdent {
			return columnRef{}, fmt.Errorf("sql: expected column after %q.", t.text)
		}
		return columnRef{table: t.text, name: c.name()}, nil
	}
	return columnRef{name: t.name()}, nil
}

func (t token) name() string { return t.text }

// resolve finds which query table a column reference belongs to.
func (p *parser) resolve(ref columnRef) (*catalog.Table, error) {
	if ref.table != "" {
		for _, tab := range p.tables {
			if strings.EqualFold(tab.Name, ref.table) {
				if _, ok := tab.Schema.Ordinal(ref.name); !ok {
					return nil, fmt.Errorf("sql: no column %q in %s", ref.name, tab.Name)
				}
				return tab, nil
			}
		}
		return nil, fmt.Errorf("sql: unknown table %q", ref.table)
	}
	var found *catalog.Table
	for _, tab := range p.tables {
		if _, ok := tab.Schema.Ordinal(ref.name); ok {
			if found != nil {
				return nil, fmt.Errorf("sql: column %q is ambiguous", ref.name)
			}
			found = tab
		}
	}
	if found == nil {
		return nil, fmt.Errorf("sql: unknown column %q", ref.name)
	}
	return found, nil
}

// parseWhere parses `conjunct AND conjunct AND ...`, splitting selection
// atoms per table and capturing at most one equality join predicate.
func (p *parser) parseWhere(q *opt.Query) error {
	for {
		if err := p.parseConjunct(q); err != nil {
			return err
		}
		if !p.acceptIdent("and") {
			return nil
		}
	}
}

func (p *parser) parseConjunct(q *opt.Query) error {
	left, err := p.parseColumnRef()
	if err != nil {
		return err
	}
	ltab, err := p.resolve(left)
	if err != nil {
		return err
	}

	// BETWEEN / IN forms.
	if p.acceptIdent("between") {
		lo, err := p.parseLiteral(ltab, left.name, slotVal)
		if err != nil {
			return err
		}
		if err := p.expectIdent("and"); err != nil {
			return err
		}
		hi, err := p.parseLiteral(ltab, left.name, slotVal2)
		if err != nil {
			return err
		}
		p.addAtom(q, ltab, expr.NewBetween(left.name, lo, hi))
		return nil
	}
	if p.acceptIdent("in") {
		if err := p.expectSymbol("("); err != nil {
			return err
		}
		var vals []tuple.Value
		for {
			v, err := p.parseLiteral(ltab, left.name, slotList+len(vals))
			if err != nil {
				return err
			}
			vals = append(vals, v)
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				p.pos++
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
		p.addAtom(q, ltab, expr.NewIn(left.name, vals...))
		return nil
	}

	opTok := p.next()
	if opTok.kind != tokOp {
		return fmt.Errorf("sql: expected comparison operator, got %q", opTok.text)
	}
	var op expr.CmpOp
	switch opTok.text {
	case "=":
		op = expr.Eq
	case "<>":
		op = expr.Ne
	case "<":
		op = expr.Lt
	case "<=":
		op = expr.Le
	case ">":
		op = expr.Gt
	case ">=":
		op = expr.Ge
	}

	// Right side: literal, or a column (join predicate).
	if p.cur().kind == tokIdent {
		right, err := p.parseColumnRef()
		if err != nil {
			return err
		}
		rtab, err := p.resolve(right)
		if err != nil {
			return err
		}
		if op != expr.Eq {
			return fmt.Errorf("sql: only equality joins are supported")
		}
		if rtab == ltab {
			return fmt.Errorf("sql: self-comparison %s.%s = %s.%s not supported", ltab.Name, left.name, rtab.Name, right.name)
		}
		if q.JoinCol != "" {
			return fmt.Errorf("sql: multiple join predicates not supported")
		}
		lk := ltab.Schema.Column(ltab.Schema.MustOrdinal(left.name)).Kind
		rk := rtab.Schema.Column(rtab.Schema.MustOrdinal(right.name)).Kind
		if !lk.Comparable(rk) {
			return fmt.Errorf("sql: join compares %s column %s.%s with %s column %s.%s",
				lk, ltab.Name, left.name, rk, rtab.Name, right.name)
		}
		// Normalize: JoinCol on q.Table, JoinCol2 on q.Table2.
		if strings.EqualFold(ltab.Name, q.Table) {
			q.JoinCol, q.JoinCol2 = left.name, right.name
		} else {
			q.JoinCol, q.JoinCol2 = right.name, left.name
		}
		return nil
	}
	val, err := p.parseLiteral(ltab, left.name, slotVal)
	if err != nil {
		return err
	}
	p.addAtom(q, ltab, expr.NewAtom(left.name, op, val))
	return nil
}

func (p *parser) addAtom(q *opt.Query, tab *catalog.Table, a expr.Atom) {
	table2 := !strings.EqualFold(tab.Name, q.Table)
	var atomIdx int
	if table2 {
		q.Pred2.Atoms = append(q.Pred2.Atoms, a)
		atomIdx = len(q.Pred2.Atoms) - 1
	} else {
		q.Pred.Atoms = append(q.Pred.Atoms, a)
		atomIdx = len(q.Pred.Atoms) - 1
	}
	for _, pp := range p.pending {
		p.params = append(p.params, ParamSite{
			Ordinal: pp.ordinal,
			Table2:  table2,
			Atom:    atomIdx,
			Slot:    pp.slot,
			Col:     a.Col,
			Kind:    pp.kind,
		})
	}
	p.pending = p.pending[:0]
}

// Literal slots within one atom, for parameter-site bookkeeping: Val, Val2
// (the BETWEEN upper bound), and slotList+i for the i-th IN-list element.
const (
	slotVal  = 0
	slotVal2 = 1
	slotList = 2
)

// paramOrdinal resolves a placeholder token to its 0-based argument index,
// enforcing that '?' and '$n' styles are not mixed.
func (p *parser) paramOrdinal(t token) (int, error) {
	if t.text == "?" {
		if p.sawNumbered {
			return 0, fmt.Errorf("sql: cannot mix ? and $n placeholders")
		}
		p.sawPositional = true
		ord := p.nextOrdinal
		p.nextOrdinal++
		return ord, nil
	}
	if p.sawPositional {
		return 0, fmt.Errorf("sql: cannot mix ? and $n placeholders")
	}
	p.sawNumbered = true
	n, err := strconv.Atoi(t.text[1:])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("sql: bad parameter %q", t.text)
	}
	return n - 1, nil
}

// parseLiteral reads a literal and coerces it to the column's type. In a
// template (ParseTemplate), a placeholder is accepted instead: the site is
// recorded for Bind and the atom gets a typed zero value so the template
// query stays structurally complete.
func (p *parser) parseLiteral(tab *catalog.Table, col string, slot int) (tuple.Value, error) {
	ord, ok := tab.Schema.Ordinal(col)
	if !ok {
		return tuple.Value{}, fmt.Errorf("sql: no column %q in %s", col, tab.Name)
	}
	kind := tab.Schema.Column(ord).Kind
	if p.cur().kind == tokParam {
		t := p.next()
		if !p.allowParams {
			return tuple.Value{}, fmt.Errorf("sql: parameter %q outside a prepared statement", t.text)
		}
		o, err := p.paramOrdinal(t)
		if err != nil {
			return tuple.Value{}, err
		}
		p.pending = append(p.pending, pendingParam{ordinal: o, slot: slot, kind: kind})
		return tuple.Value{Kind: kind}, nil
	}
	t := p.next()
	switch t.kind {
	case tokNumber:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("sql: bad number %q", t.text)
		}
		if kind == tuple.KindDate {
			return tuple.Date(n), nil
		}
		if kind != tuple.KindInt {
			return tuple.Value{}, fmt.Errorf("sql: numeric literal for %s column %s", kind, col)
		}
		return tuple.Int64(n), nil
	case tokString:
		if kind == tuple.KindDate {
			d, err := time.Parse("2006-01-02", t.text)
			if err != nil {
				return tuple.Value{}, fmt.Errorf("sql: bad date %q (want YYYY-MM-DD)", t.text)
			}
			return tuple.DateFromTime(d), nil
		}
		if kind != tuple.KindString {
			return tuple.Value{}, fmt.Errorf("sql: string literal for %s column %s", kind, col)
		}
		return tuple.Str(t.text), nil
	default:
		return tuple.Value{}, fmt.Errorf("sql: expected literal, got %q", t.text)
	}
}
