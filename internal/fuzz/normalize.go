package fuzz

import "strings"

// ShadowFilePrefix is the file-name prefix cmd/pminstr puts on generated
// shadow sources (kept in lockstep with internal/instr.ShadowFilePrefix by
// a test; duplicated here so the runtime layers do not depend on the
// generator). Because site IDs use base filenames and the generator
// preserves line numbers, a shadow target's bug fingerprints differ from
// ones naming lines of its plain source only by this prefix.
const ShadowFilePrefix = "pminstr_"

// NormalizeFingerprint strips ShadowFilePrefix from every site token of a
// bug fingerprint, mapping shadow-target fingerprints onto the plain
// source's file:line namespace that expected bug lists are written in. Site
// tokens start at the beginning of the string or after one of the
// fingerprint separators ('|' between fields, '>' in the write->read=>store
// chain, '@' before a sync site); prefix occurrences elsewhere are left
// alone.
func NormalizeFingerprint(fp string) string {
	if !strings.Contains(fp, ShadowFilePrefix) {
		return fp
	}
	var b strings.Builder
	b.Grow(len(fp))
	for i := 0; i < len(fp); {
		atBoundary := i == 0 || fp[i-1] == '|' || fp[i-1] == '>' || fp[i-1] == '@'
		if atBoundary && strings.HasPrefix(fp[i:], ShadowFilePrefix) {
			i += len(ShadowFilePrefix)
			continue
		}
		b.WriteByte(fp[i])
		i++
	}
	return b.String()
}
