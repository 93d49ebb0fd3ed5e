package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteJSONUnencodableIs500: a value encoding/json rejects (NaN) is a
// 500, not an empty 200; encodable values get json.Marshal's bytes plus a
// newline, HTML-escaped, the format the golden wire fixtures pin.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("NaN body = %d %q, want 500", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, map[string]string{"a": "<b>"})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"a\":\"\\u003cb\\u003e\"}\n" {
		t.Fatalf("body = %d %q", rec.Code, rec.Body)
	}
}

// TestEndpointContract: a wrong method is 405 with Allow naming the
// route's method on both GET and POST routes, a non-JSON POST is 415, and
// a POST body past MaxBodyBytes decodes to 413.
func TestEndpointContract(t *testing.T) {
	var body struct {
		A int `json:"a"`
	}
	post := Endpoint(http.MethodPost, WriteError, func(w http.ResponseWriter, r *http.Request) {
		if e := DecodeBody(r, &body); e != nil {
			WriteError(w, e)
			return
		}
		WriteJSON(w, http.StatusOK, body)
	})
	get := Endpoint(http.MethodGet, WriteError, func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, "ok")
	})
	serve := func(h http.HandlerFunc, method, ct, payload string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, "/x", strings.NewReader(payload))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rec := httptest.NewRecorder()
		h(rec, req)
		return rec
	}
	errCode := func(rec *httptest.ResponseRecorder) string {
		var out struct {
			Error struct{ Code string } `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("error body %q: %v", rec.Body, err)
		}
		return out.Error.Code
	}

	for _, tc := range []struct {
		h      http.HandlerFunc
		method string
		allow  string
	}{
		{post, http.MethodGet, http.MethodPost},
		{post, http.MethodPut, http.MethodPost},
		{get, http.MethodPost, http.MethodGet},
	} {
		rec := serve(tc.h, tc.method, "", "")
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != tc.allow ||
			errCode(rec) != CodeMethodNotAllowed {
			t.Fatalf("%s on a %s route = %d Allow=%q %s", tc.method, tc.allow, rec.Code, rec.Header().Get("Allow"), rec.Body)
		}
	}
	if rec := serve(post, http.MethodPost, "text/plain", `{"a":1}`); rec.Code != http.StatusUnsupportedMediaType ||
		errCode(rec) != CodeUnsupportedMedia {
		t.Fatalf("text/plain POST = %d %s", rec.Code, rec.Body)
	}
	for _, ct := range []string{"", "application/json", "application/json; charset=utf-8"} {
		if rec := serve(post, http.MethodPost, ct, `{"a":1}`); rec.Code != http.StatusOK || rec.Body.String() != "{\"a\":1}\n" {
			t.Fatalf("POST with content type %q = %d %s", ct, rec.Code, rec.Body)
		}
	}
	if rec := serve(get, http.MethodGet, "", ""); rec.Code != http.StatusOK {
		t.Fatalf("GET = %d %s", rec.Code, rec.Body)
	}
	big := `{"a":1` + strings.Repeat(" ", MaxBodyBytes) + `}`
	if rec := serve(post, http.MethodPost, "application/json", big); rec.Code != http.StatusRequestEntityTooLarge ||
		errCode(rec) != CodeBodyTooLarge {
		t.Fatalf("oversized POST = %d %s", rec.Code, rec.Body)
	}
}

// TestDecodeBodyStrict: unknown fields and trailing data are 400
// malformed_body; trailing whitespace is fine.
func TestDecodeBodyStrict(t *testing.T) {
	decode := func(payload string) *Error {
		var v struct {
			A int `json:"a"`
		}
		return DecodeBody(httptest.NewRequest(http.MethodPost, "/x", strings.NewReader(payload)), &v)
	}
	for _, payload := range []string{`{"a":1,"b":2}`, `{"a":1} {"a":2}`, `{"a":1} x`, `{"a":`, `[1]`} {
		e := decode(payload)
		if e == nil || e.Status != http.StatusBadRequest || e.Code != CodeMalformedBody {
			t.Fatalf("decode %q = %+v, want 400 malformed_body", payload, e)
		}
	}
	if e := decode("{\"a\":1}\n\t "); e != nil {
		t.Fatalf("trailing whitespace rejected: %v", e)
	}
}

// TestDecodeEmpty: an empty body, whitespace or one empty object is
// accepted; anything else fails like DecodeBody, trailing data included.
func TestDecodeEmpty(t *testing.T) {
	decode := func(payload string) *Error {
		return DecodeEmpty(httptest.NewRequest(http.MethodPost, "/x", strings.NewReader(payload)))
	}
	for _, payload := range []string{"", " \n", "{}", "{} \n"} {
		if e := decode(payload); e != nil {
			t.Fatalf("decode %q = %v, want accepted", payload, e)
		}
	}
	for _, payload := range []string{`{"a":1}`, `{} {}`, `{} x`, `{`, `[]`, `null x`} {
		e := decode(payload)
		if e == nil || e.Status != http.StatusBadRequest || e.Code != CodeMalformedBody {
			t.Fatalf("decode %q = %+v, want 400 malformed_body", payload, e)
		}
	}
}

// TestErrorAt: At prefixes the batch locator on a copy.
func TestErrorAt(t *testing.T) {
	e := Errf(http.StatusNotFound, "unknown_workload", "workload", "no %s", "doom")
	at := e.At(3)
	if at.Msg != "query 3: no doom" || e.Msg != "no doom" || at.Error() != at.Msg ||
		at.Status != e.Status || at.Code != e.Code || at.Field != e.Field {
		t.Fatalf("At = %+v from %+v", at, e)
	}
}
