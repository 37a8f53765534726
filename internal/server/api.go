package server

import (
	"errors"
	"net/http"

	"cogg/internal/batch"
	"cogg/internal/codegen"
)

// CompileRequest is the JSON body of POST /v1/compile, and one unit of
// POST /v1/batch.
type CompileRequest struct {
	// Name labels the unit in listings, errors, and statistics.
	Name string `json:"name,omitempty"`
	// Lang is the input language: "pascal" (default) compiles source
	// through the full pipeline, "if" drives the code generator over a
	// whitespace-separated prefix-IF token stream directly.
	Lang string `json:"lang,omitempty"`
	// Source is the program or IF text.
	Source string `json:"source"`
	// Spec selects the code generator specification by embedded name
	// (any name specs.Lookup accepts) or by the daemon default's name;
	// empty means the default. File paths are deliberately not accepted
	// over the wire.
	Spec string `json:"spec,omitempty"`
	// Options are the shaper/optimizer knobs of the pascal pipeline,
	// mirroring the pascal370 flags.
	Options CompileOptions `json:"options,omitempty"`
	// Deck and IF request the loader-card deck and the linearized
	// intermediate form alongside the listing (pascal only).
	Deck bool `json:"deck,omitempty"`
	IF   bool `json:"if,omitempty"`
	// Explain requests the derivation provenance — every emitted
	// instruction mapped to the production, template, and operand
	// sources that produced it — alongside the listing. Costs one extra
	// recording translation per unit, so it is opt-in; blocked parses
	// return their partial derivation on the 422 regardless.
	Explain bool `json:"explain,omitempty"`
	// DeadlineMillis bounds this request's wall time; 0 means the
	// daemon's default. A request past its deadline fails with 504.
	DeadlineMillis int `json:"deadline_ms,omitempty"`
}

// CompileOptions mirror the pascal370 shaping flags. StatementRecords
// defaults to on, as in the CLI; send false explicitly to disable.
type CompileOptions struct {
	CSE              bool  `json:"cse,omitempty"`
	SubscriptChecks  bool  `json:"checks,omitempty"`
	UninitChecks     bool  `json:"uninit,omitempty"`
	StatementRecords *bool `json:"statement_records,omitempty"`
}

func (o CompileOptions) statementRecords() bool {
	return o.StatementRecords == nil || *o.StatementRecords
}

// CompileResponse is the JSON body answering /v1/compile, and one entry
// of a /v1/batch response. On failure only Name and Failure are set and
// the HTTP status encodes the failure mode (see StatusFor).
type CompileResponse struct {
	Name    string `json:"name"`
	Listing string `json:"listing,omitempty"`
	// Deck carries the loader-card images base64-encoded: card decks
	// are binary, and a bare JSON string would corrupt non-UTF-8 bytes.
	Deck         string   `json:"deck_b64,omitempty"`
	IF           string   `json:"if,omitempty"`
	Tokens       int      `json:"tokens"`
	Reductions   int      `json:"reductions"`
	Instructions int      `json:"instructions"`
	CodeBytes    int      `json:"code_bytes"`
	Failure      *Failure `json:"failure,omitempty"`
	// TraceID identifies this request's trace: the client's X-Trace-Id
	// header when one was sent, a fresh ID otherwise. The span tree is
	// retrievable from /v1/traces under this ID while it stays in the
	// ring.
	TraceID string `json:"trace_id,omitempty"`
	// Degraded marks a response produced by a fleet front's local
	// fallback compilation rather than a cogd replica (see
	// internal/cluster); the daemon itself never sets it.
	Degraded bool `json:"degraded,omitempty"`
	// Derivation maps each emitted instruction to its producing
	// production and template (requested via Explain).
	Derivation []codegen.ProvEntry `json:"derivation,omitempty"`
}

// Failure is the wire form of one failed unit: the batch FailureMode
// taxonomy plus, for blocked parses, every BlockDiag the run collected.
type Failure struct {
	// Mode is the FailureMode string: panic, blocked, timeout,
	// resource-limit, io, or other.
	Mode      string  `json:"mode"`
	Message   string  `json:"message"`
	Blocks    []Block `json:"blocks,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
	// Derivation is the partial derivation recorded up to the failure —
	// on a blocked parse (422), the instructions the recovery emitted
	// before and between the blocks, each attributed to its production.
	Derivation []codegen.ProvEntry `json:"derivation,omitempty"`
}

// Block is the wire form of one codegen.BlockDiag.
type Block struct {
	Pos       int      `json:"pos"`
	Stmt      int      `json:"stmt,omitempty"`
	State     int      `json:"state"`
	Lookahead string   `json:"lookahead"`
	Stack     []string `json:"stack,omitempty"`
	Reason    string   `json:"reason"`
	// Expected lists the IF symbols the specification could have
	// accepted at the blocking point (see codegen.BlockDiag.Expected).
	Expected []string `json:"expected,omitempty"`
}

// BatchRequest is the JSON body of POST /v1/batch: many units compiled
// as one batch over the worker pool, results in input order.
type BatchRequest struct {
	Units          []CompileRequest `json:"units"`
	DeadlineMillis int              `json:"deadline_ms,omitempty"`
}

// BatchResponse answers /v1/batch. The HTTP status is 200 as long as
// the batch itself ran; per-unit failures are in each result's Failure,
// with Failed counting them.
type BatchResponse struct {
	Results []CompileResponse `json:"results"`
	Failed  int               `json:"failed"`
	// TraceID identifies the batch's shared trace; each unit is a child
	// span under the request span.
	TraceID string `json:"trace_id,omitempty"`
}

// GrammarSessionRequest is the JSON body of POST /v1/grammar/session:
// open a grammar-walk cursor over a specification's SLR tables.
type GrammarSessionRequest struct {
	// Spec selects the specification by embedded name, as in
	// CompileRequest; empty means the daemon's default.
	Spec string `json:"spec,omitempty"`
}

// GrammarSessionResponse answers /v1/grammar/session.
type GrammarSessionResponse struct {
	SessionID string `json:"session_id"`
	Spec      string `json:"spec"`
	State     int    `json:"state"`
	Depth     int    `json:"depth"`
	// Legal lists every IF symbol the grammar accepts next, in
	// symbol-id order, with "$end" last when the program may end here —
	// the same order as a blocked parse's expected-symbol diagnostic.
	Legal   []string `json:"legal"`
	TraceID string   `json:"trace_id,omitempty"`
}

// GrammarNextRequest is the JSON body of POST /v1/grammar/next:
// advance a session's cursor on one symbol. "$end" accepts the walk
// and closes the session.
type GrammarNextRequest struct {
	SessionID string `json:"session_id"`
	Symbol    string `json:"symbol"`
}

// GrammarNextResponse answers /v1/grammar/next. An illegal-but-declared
// symbol comes back as 422 with Error set and Legal carrying the
// recovery set; the session survives.
type GrammarNextResponse struct {
	SessionID string `json:"session_id"`
	State     int    `json:"state"`
	Depth     int    `json:"depth"`
	// Reduced lists the productions the advance's reduce cascade fired,
	// rendered as grammar rules, in execution order.
	Reduced  []string `json:"reduced,omitempty"`
	Accepted bool     `json:"accepted,omitempty"`
	Legal    []string `json:"legal,omitempty"`
	Error    string   `json:"error,omitempty"`
	TraceID  string   `json:"trace_id,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error   string   `json:"error"`
	Failure *Failure `json:"failure,omitempty"`
}

// StatusFor maps the batch failure taxonomy onto HTTP status codes:
// a blocked parse is the client's IF exceeding the specification (422),
// a resource limit is an oversized translation (413), a deadline is a
// gateway-style timeout (504), and a recovered panic or infrastructure
// fault is an internal error (500). FailOther covers front-end
// rejections — bad Pascal, unknown symbols — which are plain 400s.
func StatusFor(mode batch.FailureMode) int {
	switch mode {
	case batch.FailNone:
		return http.StatusOK
	case batch.FailBlocked:
		return http.StatusUnprocessableEntity
	case batch.FailResource:
		return http.StatusRequestEntityTooLarge
	case batch.FailTimeout:
		return http.StatusGatewayTimeout
	case batch.FailPanic, batch.FailIO:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// failureFor renders an error as its wire Failure, expanding blocked
// parses into their per-site diagnostics.
func failureFor(err error, mode batch.FailureMode) *Failure {
	if err == nil {
		return nil
	}
	f := &Failure{Mode: mode.String(), Message: err.Error()}
	var be *codegen.BlockedError
	if errors.As(err, &be) {
		f.Truncated = be.Truncated
		for _, d := range be.Blocks {
			f.Blocks = append(f.Blocks, Block{
				Pos:       d.Pos,
				Stmt:      d.Stmt,
				State:     d.State,
				Lookahead: d.Lookahead,
				Stack:     d.Stack,
				Reason:    d.Reason,
				Expected:  d.Expected,
			})
		}
	}
	return f
}
