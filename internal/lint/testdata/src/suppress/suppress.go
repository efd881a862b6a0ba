// Package journal poses as deta/internal/journal for the suppression
// fixture: a well-formed //lint:ignore with a reason suppresses the next
// line; a malformed one (no reason) or one naming an analyzer that is not
// registered suppresses nothing and is itself a finding.
package journal

import "os"

// closeQuiet demonstrates both directive forms.
func closeQuiet(f *os.File) {
	//lint:ignore errdiscipline fixture: this discard is deliberate and documented
	f.Sync()
	f.Close() // want errdiscipline
	//lint:ignore errdiscipline
	f.Sync() // want errdiscipline
	//lint:ignore maporder retired analyzer names match no registered analyzer
	f.Close() // want errdiscipline
}
