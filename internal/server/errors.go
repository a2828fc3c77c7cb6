package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"structmine/internal/cluster"
	"structmine/internal/relation"
)

// Typed submission and registration errors. Handlers map them to HTTP
// statuses and machine-readable envelope codes with errors.Is, so new
// call sites cannot drift from the wire contract by matching message
// substrings.
var (
	// ErrUnknownDataset reports a dataset id/hash that is not registered.
	ErrUnknownDataset = errors.New("server: unknown dataset")
	// ErrUnknownTask reports a task name outside the catalogue.
	ErrUnknownTask = errors.New("server: unknown task")
	// ErrTaskNotRunnable reports a catalogued task that cannot run as a
	// server job (multi-file tasks).
	ErrTaskNotRunnable = errors.New("server: task cannot run as a job")
	// ErrStoreWrite reports that durable persistence of new state failed;
	// the mutation is rolled back rather than left memory-only.
	ErrStoreWrite = errors.New("server: durable store write failed")
	// ErrResultEncoding reports a task result that has no JSON encoding;
	// the job fails rather than carry an artifact no response can render.
	ErrResultEncoding = errors.New("server: encoding job result")
	// ErrRateLimited reports a tenant that exhausted its token bucket.
	ErrRateLimited = errors.New("server: tenant rate limit exceeded")
	// ErrQuotaExceeded reports a tenant at its concurrent-jobs quota.
	ErrQuotaExceeded = errors.New("server: tenant concurrent-jobs quota exceeded")
)

// retryAfterError wraps a 429 sentinel with the seconds a client should
// wait before retrying; writeErrFor surfaces it as a Retry-After header.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e retryAfterError) Error() string { return e.err.Error() }
func (e retryAfterError) Unwrap() error { return e.err }

// retrySeconds renders a wait as whole Retry-After seconds, at least 1.
func retrySeconds(d time.Duration) string {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// Error envelope codes — the machine-readable half of every error
// response. These are API contract: clients switch on them, so existing
// codes must never change meaning.
const (
	CodeBadRequest      = "bad_request"
	CodeInvalidDataset  = "invalid_dataset"
	CodeDatasetNotFound = "dataset_not_found"
	CodeDatasetLimit    = "dataset_limit"
	CodeJobNotFound     = "job_not_found"
	CodeJobRunning      = "job_running"
	CodeUnknownTask     = "unknown_task"
	CodeTaskNotRunnable = "task_not_runnable"
	CodeQueueFull       = "queue_full"
	CodeBodyTooLarge    = "body_too_large"
	CodeDraining        = "draining"
	CodePathForbidden   = "path_forbidden"
	CodeStoreWrite      = "store_write_failed"
	CodeShapeMismatch   = "shape_mismatch"
	CodeRateLimited     = "rate_limited"
	CodeQuotaExceeded   = "quota_exceeded"
	CodePeerUnavailable = "peer_unavailable"
)

// apiError is the wire shape of one error.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiErrorBody is the envelope: {"error":{"code":...,"message":...}}.
type apiErrorBody struct {
	Error apiError `json:"error"`
}

// writeAPIErr renders the error envelope.
func writeAPIErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, apiErrorBody{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// errStatus maps a typed error to its HTTP status and envelope code.
// Unrecognized errors fall back to 400 bad_request (every 5xx condition
// has a sentinel).
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound, CodeDatasetNotFound
	case errors.Is(err, ErrUnknownTask):
		return http.StatusBadRequest, CodeUnknownTask
	case errors.Is(err, ErrTaskNotRunnable):
		return http.StatusBadRequest, CodeTaskNotRunnable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, CodeQueueFull
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests, CodeRateLimited
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests, CodeQuotaExceeded
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, cluster.ErrPeerUnavailable):
		return http.StatusServiceUnavailable, CodePeerUnavailable
	case errors.Is(err, ErrDatasetLimit):
		return http.StatusTooManyRequests, CodeDatasetLimit
	case errors.Is(err, ErrStoreWrite):
		return http.StatusInsufficientStorage, CodeStoreWrite
	case errors.Is(err, relation.ErrShapeMismatch):
		return http.StatusBadRequest, CodeShapeMismatch
	case errors.Is(err, ErrPathRegistrationDisabled):
		return http.StatusForbidden, CodePathForbidden
	default:
		return http.StatusBadRequest, CodeBadRequest
	}
}

// writeErrFor renders the envelope for a typed error. Every throttled
// response (any 429: queue-full, tenant rate limit, tenant quota, or
// the dataset cap) carries a Retry-After header — a rate-limit error
// knows exactly how long until the next token, everything else advises
// one second.
func writeErrFor(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	if status == http.StatusTooManyRequests {
		after := time.Second
		var ra retryAfterError
		if errors.As(err, &ra) {
			after = ra.after
		}
		w.Header().Set("Retry-After", retrySeconds(after))
	}
	writeAPIErr(w, status, code, "%v", err)
}
