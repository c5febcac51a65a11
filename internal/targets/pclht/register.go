// Package pclht is the P-CLHT target: the persistent cache-line hash table
// of the paper, with the five bugs PMRace found in it (paper Table 2,
// Bugs 1-5). Everything except this file is generated by cmd/pminstr from
// the plain source in internal/targets/pclhtplain; regenerate with:
//
//	go run ./cmd/pminstr -src internal/targets/pclhtplain -out internal/targets/pclht -pkg pclht
//
// CI regenerates the package with -diff (drift is an error) and runs pmvet
// over it pinned to zero findings. Bug fingerprints carry the generated
// file's pminstr_ prefix, which internal/fuzz's normalizer strips, so they
// name lines of the plain source.
//
// This file is hand-written: generated output deliberately carries no init
// function, so registration (which panics on duplicate names) stays under
// human control.
package pclht

import "github.com/pmrace-go/pmrace/internal/targets"

func init() {
	targets.Register("pclht", func() targets.Target { return New() })
}
