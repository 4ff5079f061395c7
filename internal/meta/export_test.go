package meta

import "regexp"

// PatternPrefilter compiles pattern as SetPattern does and returns a
// function reporting, for a word, whether the matcher's prefilter lets it
// through to the regexp and whether the regexp accepts it. Exported for the
// external test package, which can import the workload generator.
func PatternPrefilter(pattern string) (func(word string) (admitted, matched bool), error) {
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, err
	}
	f := newPatternFilter(re)
	return func(word string) (bool, bool) { return f.admits(word), re.MatchString(word) }, nil
}
