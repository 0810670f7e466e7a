// twist is the source-to-source transformation tool of paper §5: given a Go
// file containing a nested recursion annotated with //twist:outer and
// //twist:inner, it sanity-checks the template, detects irregular
// (outer-dependent) truncation, and emits a file with the requested
// schedules (including Fig 6(b) truncation-flag code when required).
//
// With -from-loops the input need not be recursive at all: a //twist:loops
// function holding a plain loop nest is first converted to the recursion
// template by the loop front-end (internal/loopfront, after Insa & Silva's
// loop→recursion recipe), the template is written next to the input, and
// schedule generation proceeds from it — loops→template→schedules in one
// invocation, the §7.2 "twisting as parameterless loop tiling" path.
//
// Usage:
//
//	twist -in join.go                  # writes join_twisted.go
//	twist -in join.go -out sched.go    # explicit output path
//	twist -in join.go -stdout          # print to stdout
//	twist -in join.go -schedules twisted
//	                                   # emit only one schedule family
//	twist -in join.go -schedules 'inline(2)∘twist(flagged)'
//	                                   # schedule-algebra expressions,
//	                                   # legality-checked against the
//	                                   # template's dependence witnesses
//	twist -in loops.go -from-loops     # convert a //twist:loops nest, then
//	                                   # write loops_template.go and
//	                                   # loops_twisted.go
//	twist -in loops.go -from-loops -nest tile -template-out t.go
//	                                   # select one nest by name; explicit
//	                                   # template path
//
// See examples/transform for an annotated corpus (recursive and loop
// sources), internal/transform for the template rules, internal/loopfront
// for the recognized loop shapes, and internal/transform/algebra for the
// schedule grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"twist/internal/loopfront"
	"twist/internal/transform"
	"twist/internal/transform/algebra"
)

func main() {
	var (
		in          = flag.String("in", "", "input Go file containing the annotated template (required)")
		out         = flag.String("out", "", "output file (default: <in>_twisted.go)")
		stdout      = flag.Bool("stdout", false, "write generated code to stdout instead of a file")
		schedules   = flag.String("schedules", "", "comma-separated schedule-algebra expressions to emit, e.g. 'twisted,inline(2)∘twist(flagged)'; empty means the interchanged, twisted and twisted-cutoff families")
		fromLoops   = flag.Bool("from-loops", false, "treat -in as plain loop nests: convert the //twist:loops function through internal/loopfront first")
		nestName    = flag.String("nest", "", "with -from-loops: select one //twist:loops nest by name when the file holds several")
		templateOut = flag.String("template-out", "", "with -from-loops: where to write the generated recursion template (default: <in>_template.go)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "twist: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if !*fromLoops && (*nestName != "" || *templateOut != "") {
		fatal(fmt.Errorf("-nest and -template-out require -from-loops"))
	}
	var scheds []algebra.Schedule
	if *schedules != "" {
		for _, expr := range strings.Split(*schedules, ",") {
			s, err := algebra.ParseSchedule(strings.TrimSpace(expr))
			if err != nil {
				fatal(err)
			}
			scheds = append(scheds, s)
		}
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}

	templateName := *in
	var unit *loopfront.Unit
	if *fromLoops {
		unit, err = loopfront.Single(*in, src, *nestName)
		if err != nil {
			fatal(err)
		}
		templateName = *templateOut
		if templateName == "" {
			templateName = strings.TrimSuffix(*in, ".go") + "_template.go"
		}
		if *stdout {
			os.Stdout.Write(unit.Source)
		} else if err := os.WriteFile(templateName, unit.Source, 0o644); err != nil {
			fatal(err)
		}
		src = unit.Source
	}

	tmpl, err := transform.ParseFile(templateName, src)
	if err != nil {
		fatal(err)
	}
	code, err := algebra.GenerateSchedules(tmpl, scheds)
	if err != nil {
		fatal(err)
	}
	if *stdout {
		os.Stdout.Write(code)
		return
	}
	dest := *out
	if dest == "" {
		dest = strings.TrimSuffix(*in, ".go") + "_twisted.go"
	}
	if err := os.WriteFile(dest, code, 0o644); err != nil {
		fatal(err)
	}
	kind := "regular"
	if tmpl.Irregular() {
		kind = "irregular (truncation flags synthesized)"
	}
	if unit != nil {
		fmt.Printf("twist: loop nest %q (%s/%s-shaped, %s): wrote %s and %s\n",
			unit.Name, unit.OuterShape, unit.InnerShape, kind, templateName, dest)
		return
	}
	fmt.Printf("twist: %s template; wrote %s\n", kind, dest)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "twist: %v\n", err)
	os.Exit(1)
}
