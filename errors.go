package pagefeedback

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"pagefeedback/internal/exec"
	"pagefeedback/internal/storage"
)

// ErrorKind classifies what went wrong during a query.
type ErrorKind string

const (
	// ErrKindCancelled: the caller's context was cancelled mid-query.
	ErrKindCancelled ErrorKind = "cancelled"
	// ErrKindTimeout: the query ran past its deadline (RunOptions.Timeout
	// or a deadline on the caller's context).
	ErrKindTimeout ErrorKind = "timeout"
	// ErrKindPanic: an internal panic (corrupt cell decode, comparator kind
	// mismatch, ...) was recovered at a panic boundary. The engine remains
	// usable; Op names the failing operator when the panic surfaced inside
	// one.
	ErrKindPanic ErrorKind = "panic"
	// ErrKindStorage: a storage-layer fault — hard read fault, torn page
	// (checksum mismatch), unrecovered transient fault, write fault, or
	// buffer-pool exhaustion.
	ErrKindStorage ErrorKind = "storage"
	// ErrKindOverload: admission control turned the query away — the wait
	// queue was full, or the query's deadline expired while it was still
	// queued. The query never started executing; retrying later is safe.
	ErrKindOverload ErrorKind = "overload"
	// ErrKindMemory: the query exceeded its per-query memory budget
	// (RunOptions.MemBudget) and was aborted. The budget bounds the bytes
	// pinned by blocking operators (hash-join build sides, sorts, group
	// states, RID sets) and by the row arenas of parallel scans that ship
	// rows; a parallel scan that folds an aggregate ships none.
	ErrKindMemory ErrorKind = "memory"
	// ErrKindExec: any other execution error.
	ErrKindExec ErrorKind = "exec"
)

// QueryError is the typed error all execution failures surface as. It wraps
// the underlying cause (Unwrap), so errors.Is against sentinel errors such
// as storage.ErrChecksum or context.Canceled keeps working through it.
type QueryError struct {
	// Kind classifies the failure.
	Kind ErrorKind
	// Op is the label of the operator the failure surfaced in, when known
	// (panics recovered at an operator boundary carry it).
	Op string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *QueryError) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("pagefeedback: query failed (%s, operator %s): %v", e.Kind, e.Op, e.Err)
	}
	return fmt.Sprintf("pagefeedback: query failed (%s): %v", e.Kind, e.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *QueryError) Unwrap() error { return e.Err }

// classifyQueryError wraps err in a *QueryError with the right kind. Errors
// that already are *QueryError pass through unchanged.
func classifyQueryError(err error) error {
	if err == nil {
		return nil
	}
	var qe *QueryError
	if errors.As(err, &qe) {
		return err
	}
	var op *exec.OperatorPanic
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &QueryError{Kind: ErrKindTimeout, Err: err}
	case errors.Is(err, context.Canceled):
		return &QueryError{Kind: ErrKindCancelled, Err: err}
	case errors.As(err, &op):
		return &QueryError{Kind: ErrKindPanic, Op: op.Op, Err: err}
	case errors.Is(err, exec.ErrMemBudget):
		return &QueryError{Kind: ErrKindMemory, Err: err}
	case errors.Is(err, storage.ErrChecksum),
		errors.Is(err, storage.ErrTransientFault),
		errors.Is(err, storage.ErrInjectedFault),
		errors.Is(err, storage.ErrInjectedWriteFault),
		errors.Is(err, storage.ErrPoolExhausted):
		return &QueryError{Kind: ErrKindStorage, Err: err}
	default:
		return &QueryError{Kind: ErrKindExec, Err: err}
	}
}

// recoverQueryPanic is the engine-level panic boundary: deferred by the
// Query entry points, it converts a panic escaping parsing, optimization,
// plan building, or execution into a *QueryError instead of crashing the
// process. The deferred recovery runs after all operator Close paths, so
// the engine stays usable for subsequent queries.
func recoverQueryPanic(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if err, ok := r.(error); ok {
		var op *exec.OperatorPanic
		if errors.As(err, &op) {
			*errp = &QueryError{Kind: ErrKindPanic, Op: op.Op, Err: err}
			return
		}
	}
	*errp = &QueryError{
		Kind: ErrKindPanic,
		Err:  fmt.Errorf("internal panic: %v\n%s", r, debug.Stack()),
	}
}
