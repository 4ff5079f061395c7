package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nebula"
)

// cmdSQL runs an interactive extended-SQL shell over a generated dataset.
// Statements are executed through Engine.ExecCommand; `\q` quits and `\h`
// prints the statement summary.
func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	size := fs.String("size", "tiny", "dataset size: tiny|small|mid|large")
	seed := fs.Int64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := generate(*size, *seed)
	if err != nil {
		return err
	}
	engine, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, nebula.DefaultOptions())
	if err != nil {
		return err
	}
	// Make the workload annotations available to ANNOTATE-free exploration:
	// insert them with their Δ=1 focal.
	for _, spec := range ds.Workload {
		if err := engine.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			return err
		}
	}
	fmt.Printf("nebula sql shell — D_%s, %d tuples, %d annotations. \\h for help, \\q to quit.\n",
		*size, ds.DB.TotalRows(), engine.Store().Len())
	return runShell(engine, os.Stdin, os.Stdout)
}

func runShell(engine *nebula.Engine, in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "nebula> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "quit" || line == "exit":
			return nil
		case line == `\h` || line == "help":
			fmt.Fprint(out, `statements:
  VERIFY ATTACHMENT <vid>
  REJECT ATTACHMENT <vid>
  LIST PENDING [LIMIT n]
  ANNOTATE <table> '<pk>' AS '<id>' BODY '<text>'
  DISCOVER '<annotation-id>'
  PROCESS '<annotation-id>'
  SELECT cols FROM table [WHERE col = lit [AND ...]] [WITH ANNOTATIONS]
`)
			continue
		}
		res, err := engine.ExecCommand(line)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			continue
		}
		printResult(out, res)
	}
}

func printResult(out io.Writer, res *nebula.CommandResult) {
	if len(res.Columns) > 0 {
		widths := make([]int, len(res.Columns))
		for i, c := range res.Columns {
			widths[i] = len(c)
		}
		for _, row := range res.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cells []string) {
			parts := make([]string, len(cells))
			for i, c := range cells {
				parts[i] = c + strings.Repeat(" ", widths[i]-len(c))
			}
			fmt.Fprintln(out, " "+strings.Join(parts, " | "))
		}
		writeRow(res.Columns)
		for _, row := range res.Rows {
			writeRow(row)
		}
	}
	if res.Message != "" {
		fmt.Fprintln(out, res.Message)
	}
}
