// Command rpblint is the suite's source-level fear checker: it
// re-derives the pattern census from source, cross-checks it against
// the DeclareSite registry, audits scared-construct containment and
// flags workers escaping into raw goroutines; its three certification
// passes prove offset provenance, parallel-write exclusivity and
// arena-checkout confinement. See docs/LINT.md.
//
// Usage:
//
//	rpblint [-root dir] [-json] [-census] [packages...]
//	rpblint -certify [-write-certs] [-certs file] [packages...]
//	rpblint -races [-write-races] [-races-file file] [packages...]
//	rpblint -lifetimes [-write-lifetimes] [-lifetimes-file file] [packages...]
//
// Packages are directory patterns relative to the module root
// ("./...", "./internal/bench", "examples/..."); with none given the
// whole module is checked.
//
// The three certification passes share one artifact discipline:
// -certify proves offset provenance (lint-certs.json), -races proves
// parallel-write exclusivity (lint-races.json), -lifetimes proves
// arena-checkout confinement (lint-lifetimes.json). Each renders its
// report, then either rewrites its committed artifact (-write-<pass>)
// or byte-compares against it and fails when stale; unexplained
// refusals in enforced directories fail regardless of staleness. Exit
// status: 0 clean, 1 diagnostics / stale or unexplained certificates,
// 2 analysis error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	var (
		root    = flag.String("root", "", "module root (default: walk up from cwd to go.mod)")
		asJSON  = flag.Bool("json", false, "emit the full report as JSON")
		census  = flag.Bool("census", false, "print the static pattern census")
		verbose = flag.Bool("v", false, "print the per-package scared-construct table")

		certify   = flag.Bool("certify", false, "run the offset-provenance certification pass")
		races     = flag.Bool("races", false, "run the parallel-write certification pass")
		lifetimes = flag.Bool("lifetimes", false, "run the arena lifetime certification pass")

		certsFile = flag.String("certs", "lint-certs.json", "certificate file, relative to the module root")
		racesFile = flag.String("races-file", "lint-races.json", "race-certificate file, relative to the module root")
		lifeFile  = flag.String("lifetimes-file", "lint-lifetimes.json", "lifetime-certificate file, relative to the module root")

		writeCerts = flag.Bool("write-certs", false, "with -certify: rewrite the certificate file instead of comparing")
		writeRaces = flag.Bool("write-races", false, "with -races: rewrite the race-certificate file instead of comparing")
		writeLife  = flag.Bool("write-lifetimes", false, "with -lifetimes: rewrite the lifetime-certificate file instead of comparing")
	)
	flag.Parse()

	r := *root
	if r == "" {
		var err error
		r, err = findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpblint:", err)
			os.Exit(2)
		}
	}
	cfg := lint.Config{Root: r, Dirs: flag.Args()}

	// The certification passes share one artifact code path; each
	// contributes only its runner and its refusal count.
	switch {
	case *certify:
		runPass(r, *certsFile, *writeCerts, *asJSON, "-certify -write-certs", func() (passOut, error) {
			rep, err := lint.Certify(cfg)
			if err != nil {
				return passOut{}, err
			}
			return passOut{artifact: rep.Marshal(), text: rep.String()}, nil
		})
		return
	case *races:
		runPass(r, *racesFile, *writeRaces, *asJSON, "-races -write-races", func() (passOut, error) {
			rep, err := lint.Races(cfg)
			if err != nil {
				return passOut{}, err
			}
			return passOut{artifact: rep.Marshal(), text: rep.String(), unexplained: rep.Unexplained}, nil
		})
		return
	case *lifetimes:
		runPass(r, *lifeFile, *writeLife, *asJSON, "-lifetimes -write-lifetimes", func() (passOut, error) {
			rep, err := lint.Lifetimes(cfg)
			if err != nil {
				return passOut{}, err
			}
			return passOut{artifact: rep.Marshal(), text: rep.String(), unexplained: rep.Unexplained}, nil
		})
		return
	}

	rep, err := lint.Run(lint.Config{Root: r, Dirs: flag.Args(), CertsFile: certsPath(r, *certsFile)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpblint:", err)
		os.Exit(2)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "rpblint:", err)
			os.Exit(2)
		}
	} else {
		if *census {
			fmt.Print(rep.Census.String())
		}
		if *verbose {
			fmt.Printf("%-22s %-10s %5s %9s %7s %5s %4s %7s %7s\n",
				"package", "role", "files", "unchecked", "atomics", "sync", "go", "helpers", "engines")
			for _, p := range rep.Packages {
				fmt.Printf("%-22s %-10s %5d %9d %7d %5d %4d %7d %7d\n",
					p.Path, p.Role, p.Files, p.Unchecked, p.Atomics, p.SyncDecls, p.GoStmts, p.AWHelpers, p.Engines)
			}
		}
		for _, d := range rep.Diags {
			fmt.Println(d)
		}
		if len(rep.Diags) == 0 && !*census && !*verbose {
			fmt.Printf("rpblint: clean — %d census sites (%d irregular), %d packages\n",
				rep.Census.Total, rep.Census.Irregular, len(rep.Packages))
		}
	}
	if len(rep.Diags) > 0 {
		os.Exit(1)
	}
}

// passOut is what one certification pass hands the shared plumbing.
type passOut struct {
	artifact    []byte // canonical committed-file bytes
	text        string // human rendering
	unexplained int    // unexplained refusals in enforced directories
}

// runPass executes one certification pass and applies the shared
// artifact discipline: print the report, then rewrite the committed
// file (write=true) or byte-compare against it and fail when stale.
// Unexplained refusals fail the run regardless of staleness.
func runPass(root, file string, write, asJSON bool, updateHint string, run func() (passOut, error)) {
	out, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpblint:", err)
		os.Exit(2)
	}
	if asJSON {
		os.Stdout.Write(out.artifact)
	} else {
		fmt.Print(out.text)
	}

	fail := false
	if out.unexplained > 0 {
		fmt.Fprintf(os.Stderr, "rpblint: %d unexplained refusals in enforced directories (add //lint:scared markers or fix the sites)\n", out.unexplained)
		fail = true
	}

	path := file
	if !filepath.IsAbs(path) {
		path = filepath.Join(root, path)
	}
	if write {
		if err := os.WriteFile(path, out.artifact, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rpblint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rpblint: wrote %s\n", path)
		if fail {
			os.Exit(1)
		}
		return
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpblint: no committed certificate file %s (run rpblint %s)\n", path, updateHint)
		os.Exit(1)
	}
	if !bytes.Equal(committed, out.artifact) {
		fmt.Fprintf(os.Stderr, "rpblint: %s is stale (run rpblint %s and commit the result)\n", path, updateHint)
		os.Exit(1)
	}
	if fail {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rpblint: %s is current\n", path)
}

// certsPath resolves the -certs flag against the module root. The
// default value maps to the empty string so lint.Run treats a missing
// file as "no certificates" rather than an error; an explicit -certs
// must exist.
func certsPath(root, certs string) string {
	if certs == "lint-certs.json" {
		return ""
	}
	if filepath.IsAbs(certs) {
		return certs
	}
	return filepath.Join(root, certs)
}

// findRoot walks up from the working directory to the nearest go.mod.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for dir := wd; ; {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", wd)
		}
		dir = parent
	}
}
