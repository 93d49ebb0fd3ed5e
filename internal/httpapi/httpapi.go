// Package httpapi is the request contract and the metrics core shared by
// dramserve (internal/serve) and dramrouter (internal/cluster): strict JSON
// decode, the request body cap, method and media-type enforcement,
// structured {code, field, message} errors, the pooled JSON response
// writer, and the metrics mechanics — Counter, the labelled Family, the
// per-(endpoint, status code) Requests family, the latency Histogram and
// Exposition, the one writer of Prometheus text lines. One implementation
// means a client cannot tell a router from a single backend by how either
// rejects a request or exposes its counters.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync"
)

// MaxBodyBytes bounds one request body. The largest legitimate body — a
// MaxBatch-query predict batch — is well under this.
const MaxBodyBytes = 1 << 20

// MaxBatch bounds the items of one batch body: the queries of a predict
// batch (served or routed) and the rows of an ingest batch.
const MaxBatch = 1024

// The error codes every surface shares. Each error response carries
// exactly one code, plus the offending field where one exists; packages
// add their own domain codes beside these.
const (
	CodeMalformedBody    = "malformed_body"
	CodeBodyTooLarge     = "body_too_large"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodeEmptyBatch       = "empty_batch"
	CodeBatchTooLarge    = "batch_too_large"
	CodeInternal         = "internal"
	CodeUnavailable      = "unavailable"
)

// Error is a validation or serving failure with everything a wire format
// needs: the HTTP status, the machine-readable code and field, and the
// human message.
type Error struct {
	Status int
	Code   string
	Field  string
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Errf builds an Error.
func Errf(status int, code, field, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Field: field, Msg: fmt.Sprintf(format, args...)}
}

// At returns a copy locating the error at batch query i.
func (e *Error) At(i int) *Error {
	cp := *e
	cp.Msg = fmt.Sprintf("query %d: %s", i, e.Msg)
	return &cp
}

// ErrWriter renders an Error in one wire format.
type ErrWriter func(w http.ResponseWriter, e *Error)

// WriteError renders the structured /v2 shape:
// {"error": {"code": ..., "field": ..., "message": ...}}.
func WriteError(w http.ResponseWriter, e *Error) {
	WriteJSON(w, e.Status, map[string]any{"error": map[string]string{
		"code":    e.Code,
		"field":   e.Field,
		"message": e.Msg,
	}})
}

// jsonWriter is a pooled response-encoding buffer: the encoder is bound to
// the buffer once, so a warm response reuses both instead of allocating an
// encoder and growing fresh buffer segments per request. Responses large
// enough to be pathological pool citizens are dropped rather than recycled.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

const maxPooledResponse = 1 << 20

var jsonWriterPool = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	return jw
}}

// WriteJSON writes v as the JSON response body with the given status.
// The bytes are json.Marshal's plus a trailing newline. A value that
// cannot be encoded is a 500, never a truncated or empty 200.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	jw := jsonWriterPool.Get().(*jsonWriter)
	jw.buf.Reset()
	// Encode first so a marshal failure cannot truncate a started body.
	if err := jw.enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write(jw.buf.Bytes())
	}
	if jw.buf.Cap() <= maxPooledResponse {
		jsonWriterPool.Put(jw)
	}
}

// jsonContentType accepts application/json with any parameters. An empty
// content type is allowed too (curl -XPOST sends none).
func jsonContentType(ct string) bool {
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == "application/json"
}

// Endpoint enforces the uniform method contract on a handler: a wrong
// method is always 405 with the Allow header set, a POST with a non-JSON
// content type is always 415, and POST bodies are capped at MaxBodyBytes.
// werr picks the wire format of the error body.
func Endpoint(method string, werr ErrWriter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			werr(w, Errf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "",
				"%s not allowed", r.Method))
			return
		}
		if method == http.MethodPost {
			if ct := r.Header.Get("Content-Type"); !jsonContentType(ct) {
				werr(w, Errf(http.StatusUnsupportedMediaType, CodeUnsupportedMedia, "",
					"content type %q not supported (use application/json)", ct))
				return
			}
			r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		}
		h(w, r)
	}
}

// DecodeErr maps a JSON decode failure: a body past the size cap is 413,
// anything else 400.
func DecodeErr(err error) *Error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return Errf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "",
			"request body exceeds %d bytes", mbe.Limit)
	}
	return Errf(http.StatusBadRequest, CodeMalformedBody, "", "malformed body: %v", err)
}

// DecodeBody strictly decodes a JSON request body into v: unknown fields
// are rejected, a body past the size cap maps to 413, and trailing data
// after the document is rejected (trailing whitespace is fine).
func DecodeBody(r *http.Request, v any) *Error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return DecodeErr(err)
	}
	return noTrailing(dec)
}

// DecodeEmpty is DecodeBody for endpoints that take no parameters: the
// body must be empty or an empty JSON object.
func DecodeEmpty(r *http.Request) *Error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var body struct{}
	if err := dec.Decode(&body); err == io.EOF {
		return nil
	} else if err != nil {
		return DecodeErr(err)
	}
	return noTrailing(dec)
}

// noTrailing rejects anything but whitespace after the decoded document.
func noTrailing(dec *json.Decoder) *Error {
	var extra struct{}
	if err := dec.Decode(&extra); err != io.EOF {
		return Errf(http.StatusBadRequest, CodeMalformedBody, "",
			"malformed body: trailing data after the JSON document")
	}
	return nil
}
