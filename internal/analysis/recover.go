package analysis

import (
	"fmt"
	"runtime/debug"
)

// PanicError wraps a panic recovered in the engine: the lattice walk and
// certify's candidate search recover at their entries. The panic becomes
// an error that propagates through the normal return path, where the
// server maps it to a structured 500 (and logs Stack) instead of dying
// mid-request.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at the point of recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("internal: panic in analysis worker: %v", e.Value)
}

// CapturePanic is the deferred recovery of an engine entry point: it
// stores a *PanicError in the error slot, keeping an error already
// reported there (the panic then happened during unwinding bookkeeping
// and the first cause wins).
func CapturePanic(slot *error) {
	if p := recover(); p != nil {
		if *slot == nil {
			*slot = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}
}
