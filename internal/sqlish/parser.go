package sqlish

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one statement. A trailing semicolon is allowed. The keyword
// ATTACHEMENT is accepted as an alias of ATTACHMENT — the paper spells the
// command that way.
func Parse(input string) (Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlish: trailing input at offset %d", p.peek().pos)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// acceptWord consumes the next token if it is the given keyword
// (case-insensitive).
func (p *parser) acceptWord(word string) bool {
	if p.peek().kind == tokWord && strings.EqualFold(p.peek().text, word) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectWord(word string) error {
	if !p.acceptWord(word) {
		return fmt.Errorf("sqlish: expected %s at offset %d", word, p.peek().pos)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectString() (string, error) {
	if p.peek().kind != tokString {
		return "", fmt.Errorf("sqlish: expected quoted string at offset %d", p.peek().pos)
	}
	return p.next().text, nil
}

func (p *parser) expectIdent() (string, error) {
	if p.peek().kind != tokWord {
		return "", fmt.Errorf("sqlish: expected identifier at offset %d", p.peek().pos)
	}
	return p.next().text, nil
}

func (p *parser) expectInt() (int64, error) {
	if p.peek().kind != tokNumber {
		return 0, fmt.Errorf("sqlish: expected number at offset %d", p.peek().pos)
	}
	n, err := strconv.ParseInt(p.next().text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sqlish: %w", err)
	}
	return n, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.acceptWord("VERIFY"):
		vid, err := p.attachmentVID()
		if err != nil {
			return nil, err
		}
		return &VerifyStmt{VID: vid}, nil
	case p.acceptWord("REJECT"):
		vid, err := p.attachmentVID()
		if err != nil {
			return nil, err
		}
		return &RejectStmt{VID: vid}, nil
	case p.acceptWord("LIST"):
		if err := p.expectWord("PENDING"); err != nil {
			return nil, err
		}
		stmt := &ListPendingStmt{}
		if p.acceptWord("BY") {
			if err := p.expectWord("PRIORITY"); err != nil {
				return nil, err
			}
			stmt.ByPriority = true
		}
		if p.acceptWord("LIMIT") {
			n, err := p.expectInt()
			if err != nil {
				return nil, err
			}
			if n < 0 {
				return nil, fmt.Errorf("sqlish: negative limit")
			}
			stmt.Limit = int(n)
		}
		return stmt, nil
	case p.acceptWord("ANNOTATE"):
		return p.annotate()
	case p.acceptWord("DISCOVER"):
		id, err := p.expectString()
		if err != nil {
			return nil, err
		}
		stmt := &DiscoverStmt{ID: id}
		if err := p.governors(&stmt.TimeoutMillis, &stmt.MaxCandidates, &stmt.Parallel, &stmt.Cache, &stmt.CacheBytes, &stmt.Trace, &stmt.TopK); err != nil {
			return nil, err
		}
		return stmt, nil
	case p.acceptWord("PROCESS"):
		id, err := p.expectString()
		if err != nil {
			return nil, err
		}
		stmt := &ProcessStmt{ID: id}
		if err := p.governors(&stmt.TimeoutMillis, &stmt.MaxCandidates, &stmt.Parallel, &stmt.Cache, &stmt.CacheBytes, &stmt.Trace, &stmt.TopK); err != nil {
			return nil, err
		}
		return stmt, nil
	case p.acceptWord("SELECT"):
		return p.selectStmt()
	default:
		return nil, fmt.Errorf("sqlish: unknown statement at offset %d", p.peek().pos)
	}
}

// governors parses the optional `TIMEOUT <ms>`, `MAX <n>`,
// `PARALLEL <workers>`, `CACHE ON|OFF|<bytes>`, `TRACE ON|OFF`, and
// `TOPK <k>` clauses of DISCOVER/PROCESS, in any order.
func (p *parser) governors(timeoutMillis *int64, maxCandidates *int, parallel *int, cacheMode *string, cacheBytes *int64, traced *bool, topK *int) error {
	for {
		switch {
		case p.acceptWord("TIMEOUT"):
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			if n <= 0 {
				return fmt.Errorf("sqlish: TIMEOUT must be positive")
			}
			*timeoutMillis = n
		case p.acceptWord("MAX"):
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			if n <= 0 {
				return fmt.Errorf("sqlish: MAX must be positive")
			}
			*maxCandidates = int(n)
		case p.acceptWord("PARALLEL"):
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			if n <= 0 {
				return fmt.Errorf("sqlish: PARALLEL must be positive")
			}
			*parallel = int(n)
		case p.acceptWord("CACHE"):
			switch {
			case p.acceptWord("ON"):
				*cacheMode = "on"
			case p.acceptWord("OFF"):
				*cacheMode = "off"
			case p.peek().kind == tokNumber:
				n, err := p.expectInt()
				if err != nil {
					return err
				}
				if n <= 0 {
					return fmt.Errorf("sqlish: CACHE byte budget must be positive")
				}
				*cacheBytes = n
			default:
				return fmt.Errorf("sqlish: expected ON, OFF, or a byte count after CACHE at offset %d", p.peek().pos)
			}
		case p.acceptWord("TRACE"):
			switch {
			case p.acceptWord("ON"):
				*traced = true
			case p.acceptWord("OFF"):
				*traced = false
			default:
				return fmt.Errorf("sqlish: expected ON or OFF after TRACE at offset %d", p.peek().pos)
			}
		case p.acceptWord("PLAN"):
			return fmt.Errorf("sqlish: PLAN was removed with the cost-based planner; use TOPK <k> alone")
		case p.acceptWord("TOPK"):
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			if n <= 0 {
				return fmt.Errorf("sqlish: TOPK must be positive")
			}
			*topK = int(n)
		default:
			return nil
		}
	}
}

// attachmentVID parses `ATTACHMENT <vid>` (or the paper's ATTACHEMENT).
func (p *parser) attachmentVID() (int64, error) {
	if !p.acceptWord("ATTACHMENT") && !p.acceptWord("ATTACHEMENT") {
		return 0, fmt.Errorf("sqlish: expected ATTACHMENT at offset %d", p.peek().pos)
	}
	return p.expectInt()
}

func (p *parser) annotate() (Statement, error) {
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	pk, err := p.expectString()
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("AS"); err != nil {
		return nil, err
	}
	id, err := p.expectString()
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("BODY"); err != nil {
		return nil, err
	}
	body, err := p.expectString()
	if err != nil {
		return nil, err
	}
	return &AnnotateStmt{Table: table, PK: pk, ID: id, Body: body}, nil
}

func (p *parser) selectStmt() (Statement, error) {
	stmt := &SelectStmt{}
	if !p.acceptSymbol("*") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectWord("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Table = table
	if p.acceptWord("WHERE") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if !p.acceptSymbol("=") {
				return nil, fmt.Errorf("sqlish: expected = at offset %d", p.peek().pos)
			}
			cond := Condition{Column: col}
			switch p.peek().kind {
			case tokString:
				cond.Value = p.next().text
			case tokNumber:
				cond.Value = p.next().text
				cond.IsNumber = true
			default:
				return nil, fmt.Errorf("sqlish: expected literal at offset %d", p.peek().pos)
			}
			stmt.Where = append(stmt.Where, cond)
			if !p.acceptWord("AND") {
				break
			}
		}
	}
	if p.acceptWord("WITH") {
		if err := p.expectWord("ANNOTATIONS"); err != nil {
			return nil, err
		}
		stmt.WithAnnotations = true
	}
	return stmt, nil
}
