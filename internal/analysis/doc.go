// Package analysis implements rnuca-vet: a suite of repo-specific
// static analyzers enforcing the invariants the compiler cannot see —
// replay determinism, lock discipline on mutex-guarded state, the
// frozen canonical wire encoding, context plumbing rules, metric
// naming, and the frozen exported API surface.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Reportf) but is built on the standard library alone
// (go/parser + go/types with the source importer), so the module stays
// dependency-free. If the repo ever takes on x/tools, each analyzer's
// Run function ports mechanically.
//
// rnuca-vet runs six analyzers. Each diagnostic carries a stable
// code (stable codes make findings greppable and CI-diffable); the
// meta-test in this package asserts every code below has at least one
// firing fixture under testdata/src, so no check can silently rot.
//
// # determinism
//
//	det-maprange  range over a map feeding accumulation or output in a
//	              result-affecting package (map order is randomized per
//	              run; replay must be bit-identical)
//	det-time      time.Now in a result-affecting package
//	det-rand      unseeded global math/rand source in a
//	              result-affecting package
//
// Result-affecting packages: the module root (the fold path) and
// internal/{sim,design,cache,coherence,noc,mem,ospage,stats}.
//
// # lockguard
//
//	lock-unheld         access to a "// guarded by <mu>" field or
//	                    package variable without the mutex held
//	lock-unknown-mutex  a guarded-by annotation naming a mutex that
//	                    does not exist in the struct / package scope
//
// The held-set analysis is an intra-package heuristic: defer-aware
// (a deferred Unlock holds to function end), branch-aware (an
// early-return branch that unlocks does not poison the fallthrough
// path), alias-resolving one level (st := &s.stats), and
// convention-aware (functions named *Locked assume the caller holds
// the lock; goroutine bodies start with no locks held).
//
// # wirefrozen
//
//	wire-notag      exported field of a //rnuca:wire struct without an
//	                explicit json tag (an implicit field-name encoding
//	                silently forks cache keys on rename)
//	wire-unmarked   a //rnuca:wire struct reaches a same-package struct
//	                that is not itself marked
//
// Structs with their own MarshalJSON are exempt — they control their
// encoding, and the golden tests freeze those bytes.
//
// # ctxrules
//
//	ctx-notfirst    context.Context parameter not in first position
//	ctx-background  context.Background()/TODO() in a library package
//	ctx-field       context.Context stored in a struct field
//
// Main packages and _test.go files are exempt: roots belong there.
//
// # obsnames
//
//	obs-name-literal  metric name is not a compile-time constant string
//	obs-name-format   name does not match
//	                  ^rnuca_[a-z0-9_]+(_total|_seconds|_bytes)?$, or
//	                  the suffix disagrees with the metric type
//	                  (counter→_total, histogram→_seconds|_bytes,
//	                  gauge→never _total)
//	obs-buckets       inline []float64 bucket literal instead of the
//	                  shared ExpBuckets/DefSecondsBuckets helpers
//
// # apifreeze
//
// A package opts in by owning a testdata/api-frozen.txt snapshot of
// its exported surface (one "kind name descriptor" line per exported
// const, var, func, type, field, and method). The pass re-derives the
// surface from the type checker and diffs:
//
//	api-removed  an exported symbol present in the snapshot is gone
//	api-changed  an exported symbol's type or signature differs from
//	             the snapshot
//
// Additions are allowed silently (the next -update records them);
// removals and signature changes are findings until the snapshot is
// deliberately regenerated with rnuca-vet -update, which makes API
// breaks a reviewed diff of a checked-in file rather than an
// accident. The module root package rnuca (the public Job/Result API)
// is frozen; internal packages are not.
//
// # Annotations
//
// Source annotations are line comments of the form
//
//	//rnuca:<kind> <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory: a bare annotation does not suppress anything
// and is itself reported:
//
//	ann-noreason  a //rnuca: annotation without a justification
//
// Kinds:
//
//	//rnuca:nondet-ok <reason>  waive a determinism finding (e.g. an
//	                            integer sum, order-independent)
//	//rnuca:lock-ok <reason>    waive a lockguard finding (e.g. a value
//	                            read before the struct is shared)
//	//rnuca:ctx-ok <reason>     waive a ctxrules finding (e.g. a
//	                            server's lifecycle root context)
//	//rnuca:wire                mark a struct as part of a frozen wire
//	                            shape (a declaration, not a waiver — no
//	                            reason needed)
//
// Guarded state is declared with a plain comment on the field or
// package variable:
//
//	mu    sync.Mutex
//	jobs  map[string]*job // guarded by mu
package analysis
