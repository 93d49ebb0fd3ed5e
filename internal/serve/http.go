package serve

import (
	"errors"
	"net/http"

	"repro/internal/httpapi"
)

// errClosed reports a request caught by server shutdown.
var errClosed = errors.New("serve: server closed")

// The serve-only /v2 error codes, beside the shared ones in httpapi.
const (
	codeUnknownWorkload   = "unknown_workload"
	codeUnknownModel      = "unknown_model"
	codeUnknownTarget     = "unknown_target"
	codeTargetUnavailable = "target_unavailable"
	codeBadTelemetry      = "bad_telemetry"
	codeOutOfRange        = "out_of_range"
	codeNotArtifactBacked = "not_artifact_backed"
	codeQueueFull         = "queue_full"
	codeRetrainInProgress = "retrain_in_progress"
	codeIngestDisabled    = "ingest_disabled"
)

// servingErr maps a predict/profile/registry failure: server shutdown is
// 503, anything else 500.
func servingErr(err error) *httpapi.Error {
	if errors.Is(err, errClosed) {
		return httpapi.Errf(http.StatusServiceUnavailable, httpapi.CodeUnavailable, "", "%v", err)
	}
	return httpapi.Errf(http.StatusInternalServerError, httpapi.CodeInternal, "", "%v", err)
}

// writeErrorV1 keeps the /v1 legacy error shape: {"error": "serve: ..."}.
// /v1 renders only the message; the /v2 shape is httpapi.WriteError.
func writeErrorV1(w http.ResponseWriter, e *httpapi.Error) {
	httpapi.WriteJSON(w, e.Status, map[string]string{"error": "serve: " + e.Msg})
}
