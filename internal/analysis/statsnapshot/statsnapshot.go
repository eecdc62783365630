// Package statsnapshot checks that Stats()/Snapshot()-style methods are
// coherent: a snapshot must not assemble its result from more than one
// acquisition of the same mutex. Two acquisitions mean another writer can
// slip between them, and the "snapshot" pairs numbers no real instant ever
// exhibited — counters that don't add up, a figure computed against one
// placement map reported next to row counts from another. Torn hotcache
// stats were the runtime-visible version; the analyzer's first find was a
// tieredstore Store.Snapshot that called a locking accessor for one
// placement-derived figure, then locked s.mu again for the row counts.
//
// The check is interprocedural: the collect phase records, for every
// method, which receiver-rooted mutexes it acquires (directly or through
// calls on receiver-rooted paths — s.Bound(), s.latencyUS.Snapshot());
// the report phase takes the transitive closure and flags any snapshot
// method whose acquisition events name the same mutex path twice.
// TryLock is not an acquisition: a try-lock single-flight opts out of
// blocking and of this rule.
// Indexed paths (s.shards[i].mu) are not tracked — per-shard aggregation
// under per-shard locks is a different, legitimate pattern.
package statsnapshot

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"microrec/internal/analysis"
)

// Analyzer is the statsnapshot analysis.
var Analyzer = &analysis.Analyzer{
	Name:    "statsnapshot",
	Doc:     "reports snapshot methods that mix values from multiple acquisitions of one mutex",
	Run:     collect,
	RunPost: report,
}

// funcLocks is the per-method fact: mutex paths acquired directly (relative
// to the receiver, e.g. ".mu") and call edges to other methods reached
// through receiver-rooted paths (prefix ".latencyUS" + callee Snapshot).
type funcLocks struct {
	direct []lockEvent
	calls  []callEdge
}

type lockEvent struct {
	path string // receiver-relative, ".mu"
	pos  token.Pos
}

type callEdge struct {
	prefix string // receiver-relative path of the callee's receiver, "" for the receiver itself
	callee *types.Func
	pos    token.Pos
}

func collect(pass *analysis.Pass) error {
	for _, fd := range analysis.FuncsOf(pass.Files) {
		recv := analysis.RecvIdent(fd)
		if fd.Body == nil || recv == "" {
			continue
		}
		obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		var fl funcLocks
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // closures run on their own schedule
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, okPath := analysis.ExprPath(ast.Unparen(sel.X))
			if !okPath || analysis.PathRoot(path) != recv {
				return true
			}
			rel := strings.TrimPrefix(path, recv)
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if isMu, _ := analysis.IsMutex(pass.TypeOf(sel.X)); isMu {
					fl.direct = append(fl.direct, lockEvent{path: rel, pos: call.Pos()})
					return true
				}
			case "Unlock", "RUnlock", "TryLock", "TryRLock":
				return true
			}
			if callee := analysis.CalleeFunc(pass.Info, call); callee != nil && callee.Pkg() != nil {
				fl.calls = append(fl.calls, callEdge{prefix: rel, callee: callee, pos: call.Pos()})
			}
			return true
		})
		pass.SetObjectFact(obj, fl)
	}
	return nil
}

func report(pass *analysis.Pass) error {
	for _, fd := range analysis.FuncsOf(pass.Files) {
		recv := analysis.RecvIdent(fd)
		if fd.Body == nil || recv == "" || !isSnapshotName(fd.Name.Name) {
			continue
		}
		obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		factAny, ok := pass.ObjectFact(obj)
		if !ok {
			continue
		}
		fl := factAny.(funcLocks)

		// Flatten this method's acquisition events: each direct Lock is one
		// event; each receiver-rooted call contributes every mutex its
		// transitive closure acquires, rebased onto the call path.
		type event struct {
			path string
			pos  token.Pos
		}
		var events []event
		for _, d := range fl.direct {
			events = append(events, event(d))
		}
		for _, c := range fl.calls {
			for _, p := range closureLocks(pass, c.callee, make(map[*types.Func]bool), 0) {
				events = append(events, event{path: c.prefix + p, pos: c.pos})
			}
		}
		// Source order, so the duplicate reported is the later acquisition —
		// the line a reader (and a fixture want-comment) points at.
		sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
		seen := make(map[string]token.Pos)
		for _, e := range events {
			if _, dup := seen[e.path]; dup {
				pass.Reportf(e.pos, "%s acquires %s%s more than once; snapshot mixes values from separate lock acquisitions", fd.Name.Name, recv, e.path)
			} else {
				seen[e.path] = e.pos
			}
		}
	}
	return nil
}

// closureLocks returns the receiver-relative mutex paths f acquires,
// following receiver-rooted call edges transitively. Cycles and pathological
// depth terminate the walk.
func closureLocks(pass *analysis.Pass, f *types.Func, visiting map[*types.Func]bool, depth int) []string {
	if depth > 10 || visiting[f] {
		return nil
	}
	factAny, ok := pass.ObjectFact(f)
	if !ok {
		return nil
	}
	fl := factAny.(funcLocks)
	visiting[f] = true
	var out []string
	for _, d := range fl.direct {
		out = append(out, d.path)
	}
	for _, c := range fl.calls {
		for _, p := range closureLocks(pass, c.callee, visiting, depth+1) {
			out = append(out, c.prefix+p)
		}
	}
	delete(visiting, f)
	return out
}

// isSnapshotName reports whether a method name marks a snapshot-style
// aggregation: Stats, Snapshot, and suffixed variants (AdmissionStats,
// CacheSnapshot, ...).
func isSnapshotName(name string) bool {
	return name == "Stats" || name == "Snapshot" ||
		strings.HasSuffix(name, "Stats") || strings.HasSuffix(name, "Snapshot")
}
