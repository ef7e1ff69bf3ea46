package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// ProblemContentType is the RFC 9457 media type every error response
// carries.
const ProblemContentType = "application/problem+json"

// Machine-readable problem codes. Stable across releases: clients
// switch on Code, never on Detail text.
const (
	CodeInvalidBody       = "invalid_body"        // request body is not valid JSON
	CodeInvalidRequest    = "invalid_request"     // request is well-formed JSON but semantically invalid
	CodeInvalidSolver     = "invalid_solver"      // the "solver" object has unknown or malformed fields
	CodeNotFound          = "not_found"           // no such route or resource
	CodeMethodNotAllowed  = "method_not_allowed"  // route exists, method does not
	CodeRateLimited       = "rate_limited"        // token bucket empty
	CodeJobNotFound       = "job_not_found"       // unknown or expired job ID
	CodeJobFinished       = "job_finished"        // cancel attempted on a terminal job
	CodeQueueFull         = "queue_full"          // job queue at capacity
	CodeTelemetryDisabled = "telemetry_disabled"  // server runs without a telemetry store
	CodeTelemetryError    = "telemetry_error"     // telemetry store failed internally
	CodeInternal          = "internal"            // unclassified server fault
	CodeUnavailable       = "service_unavailable" // server shutting down
	CodeCancelled         = "cancelled"           // job cancelled before completing
	CodeRestartLost       = "restart_lost"        // job was mid-run when the broker restarted
	CodeStoreDegraded     = "store_degraded"      // job store latched read-only after a storage failure
	CodeLoadShed          = "load_shed"           // queue wait over the bound; retry later
	CodeAnswerTooLarge    = "answer_too_large"    // valid request whose answer exceeds a size cap
)

// Problem is the RFC 9457 error body used on every non-2xx response,
// v1 and v2 alike. Code is the extension member clients dispatch on;
// LegacyError mirrors Detail under the pre-v2 "error" key so old v1
// clients that decode {"error": "..."} keep working.
type Problem struct {
	// Type is a URI reference identifying the problem class,
	// "urn:uptimebroker:problem:<code>".
	Type string `json:"type"`

	// Title is the short human-readable summary for the class.
	Title string `json:"title"`

	// Status echoes the HTTP status code.
	Status int `json:"status"`

	// Detail is the occurrence-specific explanation.
	Detail string `json:"detail,omitempty"`

	// Code is the stable machine-readable discriminator.
	Code string `json:"code"`

	// RequestID correlates the response with server logs.
	RequestID string `json:"request_id,omitempty"`

	// LegacyError mirrors Detail for pre-problem+json v1 clients.
	LegacyError string `json:"error,omitempty"`
}

// problemTitles maps codes to their RFC 9457 titles.
var problemTitles = map[string]string{
	CodeInvalidBody:       "Request body is not valid JSON",
	CodeInvalidRequest:    "Request failed validation",
	CodeInvalidSolver:     "Solver specification rejected",
	CodeNotFound:          "Resource not found",
	CodeMethodNotAllowed:  "Method not allowed",
	CodeRateLimited:       "Too many requests",
	CodeJobNotFound:       "Job not found",
	CodeJobFinished:       "Job already finished",
	CodeQueueFull:         "Job queue is full",
	CodeTelemetryDisabled: "Telemetry ingestion disabled",
	CodeTelemetryError:    "Telemetry store error",
	CodeInternal:          "Internal server error",
	CodeUnavailable:       "Service unavailable",
	CodeStoreDegraded:     "Job store degraded to read-only",
	CodeLoadShed:          "Server shedding load",
	CodeAnswerTooLarge:    "Answer too large",
}

// NewProblem builds a Problem for a code/status/detail triple.
func NewProblem(code string, status int, detail string) Problem {
	title, ok := problemTitles[code]
	if !ok {
		title = http.StatusText(status)
	}
	return Problem{
		Type:        "urn:uptimebroker:problem:" + code,
		Title:       title,
		Status:      status,
		Detail:      detail,
		Code:        code,
		LegacyError: detail,
	}
}

// Error implements error so a decoded Problem can travel as one.
func (p Problem) Error() string {
	return fmt.Sprintf("%s (HTTP %d, code %s)", p.Detail, p.Status, p.Code)
}

// writeProblem emits the problem body with its media type. Encode
// errors are swallowed here — by the time encoding fails the status
// line is gone anyway — but the payload is a flat struct that cannot
// fail to marshal.
func writeProblem(w http.ResponseWriter, p Problem) {
	w.Header().Set("Content-Type", ProblemContentType)
	w.WriteHeader(p.Status)
	_ = json.NewEncoder(w).Encode(p)
}
