// Package suppress exercises the //lint:stayaway-ignore directive
// handling end to end through lint.Run. The line numbers of the
// os.WriteFile calls below are asserted by TestSuppressionIntegration;
// keep them stable when editing.
package suppress

import "os"

func writeAll(path string, data []byte) {
	//lint:stayaway-ignore atomicwrite scratch file rewritten from scratch every run
	_ = os.WriteFile(path, data, 0o644) // line 11: properly suppressed

	_ = os.WriteFile(path, data, 0o644) // line 13: unsuppressed

	//lint:stayaway-ignore atomicwrite
	_ = os.WriteFile(path, data, 0o644) // line 16: directive missing reason, not suppressed

	//lint:stayaway-ignore nosuchanalyzer because reasons
	_ = os.WriteFile(path, data, 0o644) // line 19: unknown analyzer, not suppressed

	//lint:stayaway-ignore determinism wrong analyzer for this site
	_ = os.WriteFile(path, data, 0o644) // line 22: well-formed but wrong analyzer, not suppressed
}
