package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// WALDurability mechanizes the two rules the crash-recovery tests only
// probe statistically:
//
//  1. Atomic-rename protocol. Every os.Rename must sit inside the
//     tmp-write → fsync → rename → directory-fsync sequence: a
//     (*os.File).Sync call must precede the rename in the same function,
//     and after it the function must either sync a directory handle
//     directly (os.Open + Sync) or call a helper that does — helpers are
//     recognized by a fact exported from their defining package, so
//     DiskStore.syncDir satisfies the rule across files.
//
//  2. No file I/O under a store mutex. Acknowledged-answer latency is
//     bounded by one fsync, not by every other session's fsyncs queueing
//     behind a global lock. Within a region where a sync.Mutex or
//     sync.RWMutex is held (Lock/RLock without an intervening Unlock —
//     a deferred Unlock holds to function end), calls that write or
//     fsync files are flagged: (*os.File).Write/WriteString/Sync/
//     Truncate, the os package's mutating functions, and module
//     functions whose bodies (transitively) do such I/O. Closing a file
//     under the lock is allowed — the writer-map swap has to close the
//     handle it replaces.
//
// Calls through interfaces are exempt by construction (no static
// callee): a session journals through the Store interface
// while holding the session mutex, and that is the design — per-ID
// serialization — not a violation.
var WALDurability = &analysis.Analyzer{
	Name: "waldurability",
	Doc:  "enforces fsync-before-rename + dir-sync-after and forbids file I/O under store mutexes",
	// The linter's own loader holds a mutex across package loading by
	// design; it stores nothing durable and is out of scope.
	Match: func(path string) bool {
		return !strings.HasPrefix(path, "repro/internal/lint") &&
			!strings.HasPrefix(path, "repro/cmd/remp-lint")
	},
	Run: runWALDurability,
}

// dirSyncerFact marks a function that syncs a directory handle.
type dirSyncerFact struct{}

// fileIOFact marks a function whose body (transitively) writes or
// fsyncs files; pos locates the first such operation for diagnostics.
type fileIOFact struct {
	pos  token.Pos
	what string
}

// osFileMethodsIO are *os.File methods that touch the disk. Close is
// deliberately absent: swapping a WAL writer under the store mutex
// closes the displaced handle, and that is fine.
var osFileMethodsIO = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true,
	"Sync": true, "Truncate": true, "ReadAt": true, "Read": true,
}

// osPkgFuncsIO are package os functions that touch the filesystem.
var osPkgFuncsIO = map[string]bool{
	"Rename": true, "OpenFile": true, "Open": true, "Create": true,
	"CreateTemp": true, "WriteFile": true, "ReadFile": true,
	"Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true,
	"ReadDir": true, "Truncate": true,
}

func runWALDurability(pass *analysis.Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	funcBodies(pass, func(fd *ast.FuncDecl) {
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			decls[fn] = fd
		}
	})

	// Pass 1: facts. Which functions sync directories; which do file I/O.
	memo := map[*types.Func]*fileIOFact{}
	inProgress := map[*types.Func]bool{}
	var ioOf func(fn *types.Func) *fileIOFact
	ioOf = func(fn *types.Func) *fileIOFact {
		if f, ok := memo[fn]; ok {
			return f
		}
		if inProgress[fn] {
			return nil
		}
		fd, ok := decls[fn]
		if !ok {
			if f, ok := pass.ObjectFact(fn); ok {
				if io, ok := f.(*fileIOFact); ok {
					return io
				}
			}
			return nil
		}
		inProgress[fn] = true
		fact := firstFileIO(pass, fd, ioOf)
		delete(inProgress, fn)
		memo[fn] = fact
		return fact
	}
	for fn, fd := range decls {
		if syncsDir(pass, fd) {
			pass.ExportObjectFact(fn, &dirSyncerFact{})
		}
		if fact := ioOf(fn); fact != nil {
			if _, exists := pass.ObjectFact(fn); !exists {
				pass.ExportObjectFact(fn, fact)
			}
		}
	}

	// Pass 2: diagnostics.
	for _, fd := range decls {
		checkRenames(pass, fd)
		checkMutexIO(pass, fd, ioOf)
	}
	return nil
}

// isOsFileMethod reports whether call invokes the named method(s) on an
// *os.File receiver, returning the method name.
func osFileMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "os" || named.Obj().Name() != "File" {
		return ""
	}
	return fn.Name()
}

// syncsDir reports whether fd both opens a path with os.Open and fsyncs
// an *os.File — the directory-sync idiom.
func syncsDir(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	opens, syncs := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgCall(pass, call, "os", "Open") {
			opens = true
		}
		if osFileMethod(pass, call) == "Sync" {
			syncs = true
		}
		return !(opens && syncs)
	})
	return opens && syncs
}

// isDirSyncCall reports whether call invokes a function carrying the
// dirSyncerFact (same package or imported).
func isDirSyncCall(pass *analysis.Pass, call *ast.CallExpr, local map[*types.Func]*ast.FuncDecl) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	if f, ok := pass.ObjectFact(fn); ok {
		if _, ok := f.(*dirSyncerFact); ok {
			return true
		}
	}
	if fd, ok := local[fn]; ok {
		return syncsDir(pass, fd)
	}
	return false
}

// checkRenames enforces the fsync-before / dir-sync-after protocol
// around every os.Rename in fd.
func checkRenames(pass *analysis.Pass, fd *ast.FuncDecl) {
	local := map[*types.Func]*ast.FuncDecl{}
	funcBodies(pass, func(d *ast.FuncDecl) {
		if fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func); ok {
			local[fn] = d
		}
	})
	var renames []*ast.CallExpr
	var fileSyncs, dirSyncs []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isPkgCall(pass, call, "os", "Rename"):
			renames = append(renames, call)
		case osFileMethod(pass, call) == "Sync":
			fileSyncs = append(fileSyncs, call.Pos())
			dirSyncs = append(dirSyncs, call.Pos()) // an inline Open+Sync after the rename
		case isDirSyncCall(pass, call, local):
			dirSyncs = append(dirSyncs, call.Pos())
		}
		return true
	})
	for _, rn := range renames {
		if !anyBefore(fileSyncs, rn.Pos()) {
			pass.Reportf(rn.Pos(), "os.Rename without a preceding File.Sync: the data may not be on disk when the name flips; fsync the source file first")
		}
		if !anyAfter(dirSyncs, rn.End()) {
			pass.Reportf(rn.Pos(), "os.Rename not followed by a directory sync: the rename itself is not durable until the parent directory is fsync'd")
		}
	}
}

func anyBefore(positions []token.Pos, p token.Pos) bool {
	for _, q := range positions {
		if q < p {
			return true
		}
	}
	return false
}

func anyAfter(positions []token.Pos, p token.Pos) bool {
	for _, q := range positions {
		if q > p {
			return true
		}
	}
	return false
}

// firstFileIO finds the first disk-touching operation in fd, following
// static module calls.
func firstFileIO(pass *analysis.Pass, fd *ast.FuncDecl, ioOf func(*types.Func) *fileIOFact) *fileIOFact {
	var fact *fileIOFact
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fact != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if m := osFileMethod(pass, call); m != "" && osFileMethodsIO[m] {
			fact = &fileIOFact{pos: call.Pos(), what: "File." + m}
			return false
		}
		if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil {
			if fn.Pkg().Path() == "os" && osPkgFuncsIO[fn.Name()] {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					fact = &fileIOFact{pos: call.Pos(), what: "os." + fn.Name()}
					return false
				}
			}
			if inner := ioOf(fn); inner != nil {
				fact = &fileIOFact{pos: call.Pos(), what: fn.Name() + " (" + inner.what + ")"}
				return false
			}
		}
		return true
	})
	return fact
}

// lockEvent is one mutex operation or I/O call, ordered by position.
type lockEvent struct {
	pos   token.Pos
	kind  int // 0 lock, 1 unlock, 2 io
	mutex string
	what  string
}

// mutexRecv returns the diagnostic name of call's receiver when call is
// a method on sync.Mutex or sync.RWMutex, else "".
func mutexRecv(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return ""
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return exprString(sel.X)
	}
	return ""
}

// checkMutexIO flags disk I/O performed while a mutex is held, using a
// linear position-order scan of fd's body. The scan is an approximation
// — early-return Unlocks appear textually before later code, and a
// deferred Unlock correctly holds to the end — which matches how the
// store code is written and errs on neither side for straight-line
// lock regions.
func checkMutexIO(pass *analysis.Pass, fd *ast.FuncDecl, ioOf func(*types.Func) *fileIOFact) {
	var events []lockEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs on another goroutine or at defer time
		case *ast.DeferStmt:
			return false // a deferred Unlock is not a release here
		case *ast.CallExpr:
			if name := mutexRecv(pass, n); name != "" {
				fn := calleeFunc(pass, n)
				if fn == nil {
					return true
				}
				switch fn.Name() {
				case "Lock", "RLock":
					events = append(events, lockEvent{pos: n.Pos(), kind: 0, mutex: name})
				case "Unlock", "RUnlock":
					events = append(events, lockEvent{pos: n.Pos(), kind: 1, mutex: name})
				}
				return true
			}
			if m := osFileMethod(pass, n); m != "" && osFileMethodsIO[m] {
				events = append(events, lockEvent{pos: n.Pos(), kind: 2, what: "File." + m})
				return true
			}
			if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil {
				if fn.Pkg().Path() == "os" && osPkgFuncsIO[fn.Name()] {
					events = append(events, lockEvent{pos: n.Pos(), kind: 2, what: "os." + fn.Name()})
				} else if inner := ioOf(fn); inner != nil {
					events = append(events, lockEvent{pos: n.Pos(), kind: 2, what: fn.Name() + ", which does " + inner.what})
				}
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	held := map[string]int{}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.mutex]++
		case 1:
			if held[ev.mutex] > 0 {
				held[ev.mutex]--
			}
		case 2:
			var heldNames []string
			for mutex, depth := range held {
				if depth > 0 {
					heldNames = append(heldNames, mutex)
				}
			}
			if len(heldNames) > 0 {
				sort.Strings(heldNames)
				pass.Reportf(ev.pos, "%s while %s is held: file I/O under a store mutex serializes every session behind one lock; move the I/O outside the critical section", ev.what, strings.Join(heldNames, ", "))
			}
		}
	}
}
