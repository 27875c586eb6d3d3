// Package deadignore exercises unused-suppression reporting: a used
// directive stays silent (also when it gives its reason after ` -- `), a
// directive suppressing nothing is reported, a typo'd analyzer name is
// reported, and a directive for an analyzer outside the run set is left
// alone.
package deadignore

import "context"

func work() {}

func root() {
	// Used: it suppresses the ctxflow finding on context.Background.
	//dbvet:ignore ctxflow
	_ = context.Background()

	// Used, in the documented form: the names end at ` -- ` and the rest is
	// the reason, so none of its words is taken for an analyzer name.
	//dbvet:ignore ctxflow -- handed to a caller that owns no context
	_ = context.Background()

	// Unused: there is no ctxflow finding here. It is reported once, naming
	// ctxflow alone; the words of its reason are not analyzer names.
	//dbvet:ignore ctxflow -- left over from an earlier context.TODO
	work()

	// Typo: no analyzer has this name.
	//dbvet:ignore ctxflw
	work()

	// Not judgeable in a ctxflow-only run: pinleak did not execute.
	//dbvet:ignore pinleak
	work()
}
