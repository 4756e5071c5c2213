package lint

// The parallel-write certification pass (rpblint -races): enumerate
// every lexical parallel region — core primitive bodies, sched.Worker
// fork points, RangeBody.RunRange methods, mq worker loops, and go
// statements — and classify every write those regions make to captured
// or escaping state:
//
//	worker-local    the memory belongs to this task alone (a handed
//	                slot or chunk, an arena checkout, or state only
//	                one Join branch touches)
//	atomic          the write goes through sync/atomic or one of the
//	                core atomic helpers
//	lock-guarded    the write happens while a mutex is held
//	index-disjoint  distinct concurrent invocations provably write
//	                distinct elements (the Detail field names the
//	                subrule: task-affine, range-owner, block-owner,
//	                residue-class, unique-handout, worker-owned)
//	refused         the analysis cannot prove safety; a //lint:scared
//	                marker turns the refusal into an audited one
//
// Disjointness alone is enough for race freedom: Go bounds-checks every
// slice access, so an out-of-range index panics instead of racing.
//
// The pass is lexical and refusal-biased, like the offset-provenance
// certifier it delegates to: a call through a func-typed value or an
// interface inside a region is delegated (the callee owns its writes
// and is certified where its own regions appear); an in-module call is
// classified through a memoized write-effect summary (raceeffect.go);
// anything unproven is refused with a reason.
//
// The result is lint-races.json, staleness-gated in CI the same way
// lint-certs.json is. Refusals without markers in the enforced
// directories (raceEnforcedDirs) fail the gate.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// Write classes.
const (
	RaceWorkerLocal   = "worker-local"
	RaceAtomic        = "atomic"
	RaceLockGuarded   = "lock-guarded"
	RaceIndexDisjoint = "index-disjoint"
	RaceRefused       = "refused"
)

// raceEnforcedDirs are the directories where an unexplained refusal
// (no //lint:scared marker) fails the races gate. The census still
// covers the whole module.
var raceEnforcedDirs = []string{
	"internal/core", "internal/sched", "internal/mq",
	"internal/graph", "internal/arena", "internal/suffix",
}

func raceEnforced(rel string) bool {
	for _, d := range raceEnforcedDirs {
		if strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// RaceSite is one classified shared write inside a parallel region.
type RaceSite struct {
	File   string `json:"file"` // relative to the module root
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Func   string `json:"func"`   // enclosing function
	Region string `json:"region"` // region-creating construct
	Target string `json:"target"` // written expression
	Class  string `json:"class"`
	Detail string `json:"detail,omitempty"` // subrule / evidence
	Reason string `json:"reason,omitempty"` // refusal explanation
	Marker bool   `json:"marker,omitempty"` // refusal audited by //lint:scared
}

func (s RaceSite) String() string {
	head := fmt.Sprintf("%s:%d:%d: %s in %s: %s %s",
		s.File, s.Line, s.Col, s.Target, s.Region, s.Class, s.Detail)
	head = strings.TrimRight(head, " ")
	if s.Class == RaceRefused {
		head += ": " + s.Reason
		if s.Marker {
			head += " (audited: //lint:scared)"
		}
	}
	return head
}

// RaceReport is the machine-readable census (lint-races.json).
type RaceReport struct {
	Version       int        `json:"version"`
	Module        string     `json:"module"`
	Regions       int        `json:"regions"`
	WorkerLocal   int        `json:"workerLocal"`
	Atomic        int        `json:"atomic"`
	LockGuarded   int        `json:"lockGuarded"`
	IndexDisjoint int        `json:"indexDisjoint"`
	Refused       int        `json:"refused"`
	Unexplained   int        `json:"unexplained"`
	Sites         []RaceSite `json:"sites"`
}

// Races runs the parallel-write certification pass over the module
// under cfg.Root.
func Races(cfg Config) (*RaceReport, error) {
	a, err := newAnalysis(cfg)
	if err != nil {
		return nil, err
	}
	return a.races(), nil
}

// races runs the pass over an already-built analysis.
func (a *analysis) races() *RaceReport {
	loader := newTypeLoader(a)
	rp := &racePass{a: a, loader: loader}
	rep := &RaceReport{Version: 1, Module: a.mod}

	for _, pkg := range a.sortedPkgs() {
		tp := loader.check(pkg.path)
		if tp == nil || tp.tpkg == nil {
			continue
		}
		for _, f := range pkg.files {
			for _, decl := range f.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				regions := collectRegions(tp, f, fd)
				rep.Regions += len(regions)
				for _, r := range regions {
					rc := newRegionCheck(rp, tp, f, fd, r)
					rc.run()
					rep.Sites = append(rep.Sites, rc.sites...)
				}
			}
		}
	}

	rep.Sites = dedupRaceSites(rep.Sites)
	for i := range rep.Sites {
		s := &rep.Sites[i]
		switch s.Class {
		case RaceWorkerLocal:
			rep.WorkerLocal++
		case RaceAtomic:
			rep.Atomic++
		case RaceLockGuarded:
			rep.LockGuarded++
		case RaceIndexDisjoint:
			rep.IndexDisjoint++
		default:
			rep.Refused++
			if !s.Marker && raceEnforced(s.File) {
				rep.Unexplained++
			}
		}
	}
	return rep
}

// dedupRaceSites keeps one site per source position. A write can be
// seen from two regions (a nested closure walked by its enclosing
// region and claimed by an inner one); the proved classification wins
// over a refusal.
func dedupRaceSites(sites []RaceSite) []RaceSite {
	sort.SliceStable(sites, func(i, j int) bool {
		si, sj := sites[i], sites[j]
		if si.File != sj.File {
			return si.File < sj.File
		}
		if si.Line != sj.Line {
			return si.Line < sj.Line
		}
		return si.Col < sj.Col
	})
	out := sites[:0]
	for _, s := range sites {
		if n := len(out); n > 0 {
			p := &out[n-1]
			if p.File == s.File && p.Line == s.Line && p.Col == s.Col {
				if p.Class == RaceRefused && s.Class != RaceRefused {
					*p = s
				}
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// Marshal renders the report as the canonical lint-races.json bytes.
func (r *RaceReport) Marshal() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// String renders the per-site table and summary rpblint -races prints.
func (r *RaceReport) String() string {
	var sb strings.Builder
	for _, s := range r.Sites {
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "races: %d regions; %d worker-local, %d atomic, %d lock-guarded, %d index-disjoint, %d refused (%d unexplained)\n",
		r.Regions, r.WorkerLocal, r.Atomic, r.LockGuarded, r.IndexDisjoint, r.Refused, r.Unexplained)
	return sb.String()
}

// LoadRaces reads a race-certificate file.
func LoadRaces(path string) (*RaceReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r RaceReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("lint: bad race report %s: %w", path, err)
	}
	return &r, nil
}

// racePass is the shared state of one -races run.
type racePass struct {
	a       *analysis
	loader  *typeLoader
	effects memo[*types.Func, *writeEffect]
}

// ---------------------------------------------------------------------
// Region enumeration
// ---------------------------------------------------------------------

// coreRegionSpec describes how one core primitive turns its closure
// arguments into parallel regions.
type coreRegionSpec struct {
	bodyArgs []int // closure argument positions
	task     []int // closure params invoked with a unique value per task
	handed   []int // closure params handing the task its own memory
	loArg    int   // range lower bound argument (-1: none / implicit 0)
	hiArg    int   // range upper bound / extent argument (-1: none)
}

// coreRegionSpecs maps core primitives to their region shapes. The
// task/handed columns encode each primitive's documented body contract:
// which closure parameters are guaranteed unique per concurrent
// invocation, and which hand the invocation exclusively owned memory.
var coreRegionSpecs = map[string]coreRegionSpec{
	"ForRange":            {bodyArgs: []int{4}, task: []int{0}, loArg: 1, hiArg: 2},
	"ForEachIdx":          {bodyArgs: []int{3}, task: []int{0}, handed: []int{1}, loArg: -1, hiArg: -1},
	"Chunks":              {bodyArgs: []int{3}, task: []int{0}, handed: []int{1}, loArg: -1, hiArg: -1},
	"Tabulate":            {bodyArgs: []int{2}, task: []int{0}, loArg: -1, hiArg: 1},
	"Stencil2D":           {bodyArgs: []int{4}, loArg: -1, hiArg: -1},
	"Reduce":              {bodyArgs: []int{3, 4}, loArg: -1, hiArg: -1},
	"MapReduce":           {bodyArgs: []int{3}, task: []int{0}, loArg: -1, hiArg: 1},
	"Count":               {bodyArgs: []int{2}, loArg: -1, hiArg: -1},
	"All":                 {bodyArgs: []int{2}, loArg: -1, hiArg: -1},
	"SegReduce":           {bodyArgs: []int{4, 5}, loArg: -1, hiArg: -1},
	"PackIndex":           {bodyArgs: []int{2}, task: []int{0}, loArg: -1, hiArg: 1},
	"PackIndexInto":       {bodyArgs: []int{2}, task: []int{0}, loArg: -1, hiArg: 1},
	"Filter":              {bodyArgs: []int{2}, loArg: -1, hiArg: -1},
	"FilterInto":          {bodyArgs: []int{2}, loArg: -1, hiArg: -1},
	"SortBy":              {bodyArgs: []int{2}, loArg: -1, hiArg: -1},
	"IsSorted":            {bodyArgs: []int{2}, loArg: -1, hiArg: -1},
	"ScanExclusiveOp":     {bodyArgs: []int{3}, loArg: -1, hiArg: -1},
	"IndForEach":          {bodyArgs: []int{3}, task: []int{0}, handed: []int{1}, loArg: -1, hiArg: -1},
	"IndForEachUnchecked": {bodyArgs: []int{3}, task: []int{0}, handed: []int{1}, loArg: -1, hiArg: -1},
	"IndChunks":           {bodyArgs: []int{3}, task: []int{0}, handed: []int{1}, loArg: -1, hiArg: -1},
	"IndChunksUnchecked":  {bodyArgs: []int{3}, task: []int{0}, handed: []int{1}, loArg: -1, hiArg: -1},
	"Async":               {bodyArgs: []int{1}, loArg: -1, hiArg: -1},
}

// mqRegionFuncs are the mq drivers whose task closures run on
// long-lived worker goroutines. The closure's first parameter is the
// worker id, unique per goroutine.
var mqRegionFuncs = map[string]bool{"Process": true, "ProcessOpt": true, "ProcessBatch": true}

// raceRegion is one lexical parallel region.
type raceRegion struct {
	kind    string                  // display: creating construct
	at      token.Pos               // position the region is created at
	body    *ast.BlockStmt          // region body
	task    map[types.Object]string // unique-per-task params -> subrule seed
	handed  map[types.Object]bool   // params handing exclusively owned memory
	rangeLo types.Object            // handed subrange bounds (Worker.For, RunRange)
	rangeHi types.Object
	worker  types.Object   // the invocation's *Worker param
	extent  ast.Expr       // task-index space size when the range starts at 0
	sibling *ast.BlockStmt // Join: the other branch

	claimed map[*ast.FuncLit]bool // nested region bodies, skipped by this region's walk
}

// collectRegions finds the parallel regions created inside one
// function, and the closure literals they claim (so enclosing regions
// do not re-walk a nested region's body). It is shared by the races
// pass (every region's writes are classified) and the lifetimes pass
// (a checkout's fate is judged against the region that owns it); see
// regionflow.go for the latter's flow walk.
func collectRegions(tp *typedPkg, f *fileInfo, fd *ast.FuncDecl) []*raceRegion {
	var regions []*raceRegion
	claimed := map[*ast.FuncLit]bool{}

	// Local closures: name := func(...) {...} — primitives are often
	// handed the closure by name (msf's clearBest/offer/commit).
	litOf := map[types.Object]*ast.FuncLit{}
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if lit, ok := unparen(as.Rhs[i]).(*ast.FuncLit); ok {
				if obj := tp.info.Defs[id]; obj != nil {
					litOf[obj] = lit
				}
			}
		}
		return true
	})
	resolveLit := func(arg ast.Expr) *ast.FuncLit {
		switch v := unparen(arg).(type) {
		case *ast.FuncLit:
			return v
		case *ast.Ident:
			if obj := tp.info.Uses[v]; obj != nil {
				return litOf[obj]
			}
		}
		return nil
	}
	litParam := func(lit *ast.FuncLit, i int) types.Object {
		idx := 0
		for _, fld := range lit.Type.Params.List {
			names := fld.Names
			if len(names) == 0 {
				idx++ // unnamed param
				continue
			}
			for _, nm := range names {
				if idx == i {
					return tp.info.Defs[nm]
				}
				idx++
			}
		}
		return nil
	}

	add := func(r *raceRegion, lit *ast.FuncLit) {
		if r.task == nil {
			r.task = map[types.Object]string{}
		}
		if r.handed == nil {
			r.handed = map[types.Object]bool{}
		}
		claimed[lit] = true
		r.body = lit.Body
		regions = append(regions, r)
	}

	walkWithPath(fd, func(n ast.Node, path []ast.Node) {
		switch v := n.(type) {
		case *ast.GoStmt:
			lit, ok := unparen(v.Call.Fun).(*ast.FuncLit)
			if !ok {
				return // handled as a site by the region walk of the enclosing region, if any
			}
			r := &raceRegion{kind: "go", at: v.Pos(), task: map[types.Object]string{}}
			// Spawn-loop idiom: a parameter fed the enclosing loop's
			// variable is unique per goroutine.
			for i, arg := range v.Call.Args {
				id, ok := unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				obj := tp.info.Uses[id]
				if obj == nil || !loopVarOf(tp, path, obj) {
					continue
				}
				if p := litParam(lit, i); p != nil {
					r.task[p] = "task-affine"
				}
			}
			add(r, lit)

		case *ast.CallExpr:
			if pathStr, name, isPkg := callTarget(f, v); isPkg {
				switch {
				case isPath(pathStr, corePath):
					spec, ok := coreRegionSpecs[name]
					if !ok {
						return
					}
					for _, ai := range spec.bodyArgs {
						if ai >= len(v.Args) {
							continue
						}
						lit := resolveLit(v.Args[ai])
						if lit == nil {
							continue
						}
						r := &raceRegion{kind: "core." + name, at: v.Pos(),
							task: map[types.Object]string{}, handed: map[types.Object]bool{}}
						// Task/handed params only apply to the primary
						// (per-task) body arg, the first in bodyArgs.
						if ai == spec.bodyArgs[0] {
							for _, ti := range spec.task {
								if p := litParam(lit, ti); p != nil {
									r.task[p] = "task-affine"
								}
							}
							for _, hi := range spec.handed {
								if p := litParam(lit, hi); p != nil {
									r.handed[p] = true
								}
							}
							if spec.hiArg >= 0 && spec.hiArg < len(v.Args) &&
								(spec.loArg < 0 || isZeroExpr(v.Args[spec.loArg])) {
								r.extent = v.Args[spec.hiArg]
							}
						}
						add(r, lit)
					}
				case isPath(pathStr, mqPath) && mqRegionFuncs[name]:
					if len(v.Args) == 0 {
						return
					}
					lit := resolveLit(v.Args[len(v.Args)-1])
					if lit == nil {
						return
					}
					r := &raceRegion{kind: "mq." + name, at: v.Pos(), task: map[types.Object]string{}}
					if p := litParam(lit, 0); p != nil {
						r.task[p] = "task-affine"
					}
					add(r, lit)
				}
				return
			}
			// Worker method fork points.
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok || !isWorkerExpr(tp, sel.X) {
				return
			}
			switch sel.Sel.Name {
			case "For":
				if len(v.Args) != 4 {
					return
				}
				if lit := resolveLit(v.Args[3]); lit != nil {
					r := &raceRegion{kind: "Worker.For", at: v.Pos()}
					r.worker = litParam(lit, 0)
					r.rangeLo, r.rangeHi = litParam(lit, 1), litParam(lit, 2)
					add(r, lit)
				}
			case "Join":
				if len(v.Args) != 2 {
					return
				}
				la, lb := resolveLit(v.Args[0]), resolveLit(v.Args[1])
				if la != nil {
					r := &raceRegion{kind: "Worker.Join", at: v.Pos(), worker: litParam(la, 0)}
					if lb != nil {
						r.sibling = lb.Body
					}
					add(r, la)
				}
				if lb != nil {
					r := &raceRegion{kind: "Worker.Join", at: v.Pos(), worker: litParam(lb, 0)}
					if la != nil {
						r.sibling = la.Body
					}
					add(r, lb)
				}
			case "SpawnTask":
				if len(v.Args) != 1 {
					return
				}
				if lit := resolveLit(v.Args[0]); lit != nil {
					r := &raceRegion{kind: "Worker.SpawnTask", at: v.Pos(), worker: litParam(lit, 0)}
					add(r, lit)
				}
			case "ForEachWorker":
				if len(v.Args) != 1 {
					return
				}
				if lit := resolveLit(v.Args[0]); lit != nil {
					r := &raceRegion{kind: "Worker.ForEachWorker", at: v.Pos(), worker: litParam(lit, 0)}
					add(r, lit)
				}
			}
		}
	})

	// A RangeBody's RunRange method is itself a region: sched.ForBody
	// invokes it concurrently over disjoint subranges.
	if r := runRangeRegion(tp, fd); r != nil {
		regions = append(regions, r)
	}

	for _, r := range regions {
		r.claimed = claimed
	}
	return regions
}

// runRangeRegion recognizes a RunRange(w *Worker, lo, hi int) method
// declaration (the sched.RangeBody contract) as a parallel region whose
// lo/hi parameters are a handed disjoint subrange.
func runRangeRegion(tp *typedPkg, fd *ast.FuncDecl) *raceRegion {
	if fd.Recv == nil || fd.Name.Name != "RunRange" || fd.Type.Params == nil {
		return nil
	}
	var params []types.Object
	for _, fld := range fd.Type.Params.List {
		if len(fld.Names) == 0 {
			params = append(params, nil)
			continue
		}
		for _, nm := range fld.Names {
			params = append(params, tp.info.Defs[nm])
		}
	}
	if len(params) != 3 {
		return nil
	}
	r := &raceRegion{
		kind: "RangeBody.RunRange", at: fd.Pos(), body: fd.Body,
		task:    map[types.Object]string{},
		handed:  map[types.Object]bool{},
		worker:  params[0],
		rangeLo: params[1], rangeHi: params[2],
		claimed: map[*ast.FuncLit]bool{},
	}
	return r
}

// loopVarOf reports whether obj is the loop variable of a for/range
// statement on the path (the spawn-loop idiom).
func loopVarOf(tp *typedPkg, path []ast.Node, obj types.Object) bool {
	for _, n := range path {
		switch v := n.(type) {
		case *ast.ForStmt:
			if as, ok := v.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && tp.info.Defs[id] == obj {
						return true
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{v.Key, v.Value} {
				if id, ok := e.(*ast.Ident); ok && tp.info.Defs[id] == obj {
					return true
				}
			}
		}
	}
	return false
}

// isWorkerExpr reports whether e's type is (a pointer to) the
// scheduler's Worker.
func isWorkerExpr(tp *typedPkg, e ast.Expr) bool {
	tv, ok := tp.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isWorkerNamed(tv.Type)
}

func isWorkerNamed(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		if p, ok := t.(*types.Pointer); ok {
			named, ok = p.Elem().(*types.Named)
			if !ok {
				return false
			}
		} else {
			return false
		}
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Worker" && obj.Pkg() != nil &&
		isPath(obj.Pkg().Path(), schedPath)
}

// isZeroExpr reports whether e is the integer literal 0.
func isZeroExpr(e ast.Expr) bool {
	bl, ok := unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}
