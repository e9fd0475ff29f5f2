package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// SetupLogging configures the process-wide slog default logger from the
// -log-level and -log-format flag values: level is one of debug, info, warn,
// error; format is text or json. Output goes to stderr. Call it once at
// startup; libraries then pick up the configuration through Logger.
func SetupLogging(level, format string) error {
	return setupLogging(os.Stderr, level, format)
}

func setupLogging(w io.Writer, level, format string) error {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "text", "":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// Logger returns the default logger scoped to one component — every record
// carries component=<name>, so a grep for component=cluster isolates the
// replication layer. Components that may run before SetupLogging (or in
// tests that never call it) still get a usable logger: slog's own default.
func Logger(component string) *slog.Logger {
	return slog.Default().With("component", component)
}
