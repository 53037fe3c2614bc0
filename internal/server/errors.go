package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/guard"
	"repro/internal/search"
)

// apiError is a request failure with its HTTP rendering. The code
// strings mirror the CLI exit-code vocabulary (see the error→status
// table in DESIGN.md "Service layer"): what a one-shot command reports
// as an exit code, the daemon reports as a status, so operators debug
// one classification, not two.
type apiError struct {
	status     int
	code       string // invalid | limit | timeout | not_found | shed | draining | internal
	msg        string
	retryAfter time.Duration // > 0 renders a Retry-After header
}

func (e *apiError) Error() string { return e.msg }

// badRequest builds the 400 invalid-input error (CLI exit 3).
func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "invalid", msg: fmt.Sprintf(format, args...)}
}

// notFound builds the 422 no-embedding-found error (CLI exit 5): the
// request was well-formed, but no embedding exists (or none was found
// within the search budget).
func notFound(format string, args ...any) *apiError {
	return &apiError{status: http.StatusUnprocessableEntity, code: "not_found", msg: fmt.Sprintf(format, args...)}
}

// toAPIError classifies err into its HTTP rendering, mirroring the CLI
// conventions: limits → 413, deadline/cancellation → 504 (exit 4),
// shed → 429/503 with Retry-After, anything unclassified → 500
// (exit 1).
func toAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	var se *shedError
	if errors.As(err, &se) {
		status, code := http.StatusTooManyRequests, "shed"
		if se.reason == shedDraining {
			status, code = http.StatusServiceUnavailable, "draining"
		}
		return &apiError{status: status, code: code, msg: se.Error(), retryAfter: se.retryAfter}
	}
	var le *guard.LimitError
	if errors.As(err, &le) {
		return &apiError{status: http.StatusRequestEntityTooLarge, code: "limit", msg: le.Error()}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &apiError{status: http.StatusRequestEntityTooLarge, code: "limit",
			msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
	}
	var ce *guard.CancelError
	if errors.As(err, &ce) ||
		errors.Is(err, search.ErrDeadline) || errors.Is(err, search.ErrCanceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &apiError{status: http.StatusGatewayTimeout, code: "timeout", msg: err.Error()}
	}
	return &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}
}
