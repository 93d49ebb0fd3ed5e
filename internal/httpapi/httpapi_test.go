package httpapi

import (
	"math"
	"net/http"
	"net/http/httptest"
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
