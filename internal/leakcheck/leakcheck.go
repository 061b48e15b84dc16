// Package leakcheck fails a test that leaves this module's goroutines
// running after it ends.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Check snapshots the live goroutines and registers a cleanup that
// fails t if a goroutine started since then is still alive with a frame
// (or creator) in this module. Goroutines get up to 2 s to exit. Call
// Check before registering the cleanups that stop what the test
// started: cleanups run last-in first-out, so those run first.
func Check(t testing.TB) {
	t.Helper()
	before := goroutines()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			var leaked []string
			for id, stack := range goroutines() {
				if _, old := before[id]; !old && ownStack(stack) {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("leakcheck: %d goroutine(s) still running 2s after the test:\n\n%s",
					len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// goroutines returns the stack of every live goroutine, keyed by its ID.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		out[id] = g
	}
	return out
}

// ownStack reports whether a stack has a frame or creator in the rnuca
// module (function names "rnuca.X" in the root package, "rnuca/..."
// below it).
func ownStack(stack string) bool {
	for _, line := range strings.Split(stack, "\n") {
		fn := strings.TrimPrefix(line, "created by ")
		if strings.HasPrefix(fn, "rnuca.") || strings.HasPrefix(fn, "rnuca/") {
			return true
		}
	}
	return false
}
