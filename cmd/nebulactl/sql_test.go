package main

import (
	"strings"
	"testing"

	"nebula"
)

func shellEngine(t *testing.T) *nebula.Engine {
	t.Helper()
	ds, err := generate("tiny", 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRunShellExecutesStatements(t *testing.T) {
	e := shellEngine(t)
	in := strings.NewReader(strings.Join([]string{
		"",   // blank line ignored
		`\h`, // help
		"SELECT GID FROM Gene WHERE GID = 'JW00003'",
		"BROKEN STATEMENT",
		`\q`,
	}, "\n"))
	var out strings.Builder
	if err := runShell(e, in, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "JW00003") {
		t.Errorf("select result missing:\n%s", s)
	}
	if !strings.Contains(s, "error:") {
		t.Errorf("error line missing:\n%s", s)
	}
	if !strings.Contains(s, "VERIFY ATTACHMENT") {
		t.Errorf("help missing:\n%s", s)
	}
}

func TestRunShellEOF(t *testing.T) {
	e := shellEngine(t)
	var out strings.Builder
	if err := runShell(e, strings.NewReader("SELECT GID FROM Gene WHERE GID = 'JW00001'"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "JW00001") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestPrintResultMessageOnly(t *testing.T) {
	var out strings.Builder
	printResult(&out, &nebula.CommandResult{Message: "done"})
	if strings.TrimSpace(out.String()) != "done" {
		t.Errorf("output %q", out.String())
	}
}
