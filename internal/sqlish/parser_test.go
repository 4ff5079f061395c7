package sqlish

import (
	"reflect"
	"strings"
	"testing"
)

func parseOK(t *testing.T, in string) Statement {
	t.Helper()
	s, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	return s
}

func TestParseVerifyReject(t *testing.T) {
	s := parseOK(t, "VERIFY ATTACHMENT 42")
	if v, ok := s.(*VerifyStmt); !ok || v.VID != 42 {
		t.Fatalf("got %#v", s)
	}
	// Case-insensitive keywords, paper's spelling, trailing semicolon.
	s = parseOK(t, "reject Attachement 7;")
	if r, ok := s.(*RejectStmt); !ok || r.VID != 7 {
		t.Fatalf("got %#v", s)
	}
	for _, bad := range []string{
		"VERIFY 42", "VERIFY ATTACHMENT", "VERIFY ATTACHMENT 'x'",
		"VERIFY ATTACHMENT 1 2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseListPending(t *testing.T) {
	s := parseOK(t, "LIST PENDING")
	if l, ok := s.(*ListPendingStmt); !ok || l.Limit != 0 {
		t.Fatalf("got %#v", s)
	}
	s = parseOK(t, "list pending limit 10")
	if l, ok := s.(*ListPendingStmt); !ok || l.Limit != 10 {
		t.Fatalf("got %#v", s)
	}
	if _, err := Parse("LIST PENDING LIMIT -3"); err == nil {
		t.Error("negative limit should fail")
	}
	if _, err := Parse("LIST"); err == nil {
		t.Error("bare LIST should fail")
	}
}

func TestParseAnnotate(t *testing.T) {
	s := parseOK(t, "ANNOTATE Gene 'JW0013' AS 'alice' BODY 'related to JW0014'")
	a, ok := s.(*AnnotateStmt)
	if !ok {
		t.Fatalf("got %#v", s)
	}
	want := &AnnotateStmt{Table: "Gene", PK: "JW0013", ID: "alice", Body: "related to JW0014"}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("got %#v, want %#v", a, want)
	}
	// Quote escaping.
	s = parseOK(t, "ANNOTATE Gene 'JW0013' AS 'a' BODY 'it''s related'")
	if s.(*AnnotateStmt).Body != "it's related" {
		t.Errorf("escaped body = %q", s.(*AnnotateStmt).Body)
	}
	for _, bad := range []string{
		"ANNOTATE 'Gene' 'x' AS 'a' BODY 'b'",
		"ANNOTATE Gene JW0013 AS 'a' BODY 'b'",
		"ANNOTATE Gene 'x' BODY 'b'",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseDiscoverProcess(t *testing.T) {
	if d := parseOK(t, "DISCOVER 'alice'"); d.(*DiscoverStmt).ID != "alice" {
		t.Fatal("discover id")
	}
	if p := parseOK(t, "PROCESS 'alice';"); p.(*ProcessStmt).ID != "alice" {
		t.Fatal("process id")
	}
	if _, err := Parse("DISCOVER alice"); err == nil {
		t.Error("unquoted id should fail")
	}
}

func TestParseDiscoverGovernors(t *testing.T) {
	d := parseOK(t, "DISCOVER 'alice' TIMEOUT 250 MAX 10").(*DiscoverStmt)
	if d.ID != "alice" || d.TimeoutMillis != 250 || d.MaxCandidates != 10 {
		t.Fatalf("got %#v", d)
	}
	// Clauses compose in either order, and each is optional.
	p := parseOK(t, "PROCESS 'alice' MAX 5 TIMEOUT 100;").(*ProcessStmt)
	if p.TimeoutMillis != 100 || p.MaxCandidates != 5 {
		t.Fatalf("got %#v", p)
	}
	only := parseOK(t, "DISCOVER 'alice' MAX 2").(*DiscoverStmt)
	if only.TimeoutMillis != 0 || only.MaxCandidates != 2 {
		t.Fatalf("got %#v", only)
	}
	if k := parseOK(t, "DISCOVER 'alice' TOPK 3").(*DiscoverStmt); k.TopK != 3 {
		t.Fatalf("got %#v", k)
	}
	// The cost-based planner is gone; its clause fails naming the removal.
	for _, removed := range []string{
		"DISCOVER 'alice' PLAN ON",
		"DISCOVER 'alice' PLAN OFF",
		"DISCOVER 'alice' PLAN",
	} {
		if _, err := Parse(removed); err == nil || !strings.Contains(err.Error(), "PLAN was removed") {
			t.Errorf("Parse(%q) = %v, want an error naming the removal", removed, err)
		}
	}
	for _, bad := range []string{
		"DISCOVER 'alice' TIMEOUT",
		"DISCOVER 'alice' TIMEOUT 'soon'",
		"DISCOVER 'alice' TIMEOUT 0",
		"DISCOVER 'alice' MAX -3",
		"PROCESS 'alice' MAX 0",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseSelect(t *testing.T) {
	s := parseOK(t, "SELECT * FROM Gene")
	sel := s.(*SelectStmt)
	if sel.Table != "Gene" || len(sel.Columns) != 0 || sel.WithAnnotations {
		t.Fatalf("got %#v", sel)
	}
	s = parseOK(t, "SELECT GID, Name FROM Gene WHERE Family = 'F1' AND Length = 1130 WITH ANNOTATIONS")
	sel = s.(*SelectStmt)
	if !reflect.DeepEqual(sel.Columns, []string{"GID", "Name"}) {
		t.Errorf("columns = %v", sel.Columns)
	}
	if len(sel.Where) != 2 || sel.Where[0].Column != "Family" || sel.Where[0].Value != "F1" || sel.Where[0].IsNumber {
		t.Errorf("where = %#v", sel.Where)
	}
	if !sel.Where[1].IsNumber || sel.Where[1].Value != "1130" {
		t.Errorf("numeric literal = %#v", sel.Where[1])
	}
	if !sel.WithAnnotations {
		t.Error("WITH ANNOTATIONS not parsed")
	}
	for _, bad := range []string{
		"SELECT FROM Gene",
		"SELECT * Gene",
		"SELECT * FROM Gene WHERE Family",
		"SELECT * FROM Gene WHERE Family = ",
		"SELECT * FROM Gene WITH",
		"SELECT * FROM Gene nonsense",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseLexErrors(t *testing.T) {
	for _, bad := range []string{
		"VERIFY ATTACHMENT 'unterminated",
		"SELECT * FROM Gene WHERE a = 'x' ??",
		"",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestLexDetails(t *testing.T) {
	toks, err := lex("a1 'it''s' -3 *,=;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokWord, tokString, tokNumber, tokSymbol, tokSymbol, tokSymbol, tokSymbol, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind = %v, want %v", i, toks[i].kind, k)
		}
	}
	if toks[1].text != "it's" {
		t.Errorf("string = %q", toks[1].text)
	}
	if toks[2].text != "-3" {
		t.Errorf("number = %q", toks[2].text)
	}
}

func TestParseListPendingByPriority(t *testing.T) {
	s := parseOK(t, "LIST PENDING BY PRIORITY LIMIT 5")
	l, ok := s.(*ListPendingStmt)
	if !ok || !l.ByPriority || l.Limit != 5 {
		t.Fatalf("got %#v", s)
	}
	if _, err := Parse("LIST PENDING BY"); err == nil {
		t.Error("bare BY should fail")
	}
}
