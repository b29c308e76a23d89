package serve

import (
	"fmt"
	"net/http"
)

// Error codes returned in the JSON error envelope. Clients branch on the
// code, not the message: load drivers retry queue_full and draining,
// surface budget_exhausted and level_floor to the caller, and treat
// internal/corrupt as server-side incidents.
const (
	CodeQueueFull       = "queue_full"         // 429: admission queue at capacity, retry after backoff
	CodeDraining        = "draining"           // 503: server is shutting down, find another replica
	CodePoolExhausted   = "pool_exhausted"     // 503: scratch pool exhausted (fault-injected in tests)
	CodeDeadline        = "deadline"           // 504: the request deadline fired mid-evaluation
	CodeBudgetExhausted = "budget_exhausted"   // 422: predicted noise budget would fall below the floor
	CodeLevelFloor      = "level_floor"        // 422: ciphertext already at the bottom of the ladder
	CodeCorrupt         = "corrupt"            // 500: decryption integrity check failed, plaintext withheld
	CodeUnknownTenant   = "unknown_tenant"     // 404
	CodeUnknownHandle   = "unknown_handle"     // 404
	CodeBadRequest      = "bad_request"        // 400
	CodeBodyTooLarge    = "body_too_large"     // 413: request body past the cap sized from the scheme's N
	CodeTooManyHandles  = "too_many_handles"   // 409: per-tenant ciphertext store is full
	CodeInternal        = "internal"           // 500: request panicked; scratch quarantined
	CodeNotCompiled     = "fault_not_compiled" // 501: fault endpoint on a production build
)

// apiError is the typed error every handler and evaluation step returns;
// it maps one-to-one onto the HTTP error envelope.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Code + ": " + e.Message }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

func errBadRequest(format string, args ...any) *apiError {
	return errf(http.StatusBadRequest, CodeBadRequest, format, args...)
}
