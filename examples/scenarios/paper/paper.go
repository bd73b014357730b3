// Package paper is the paper's evaluation as data: one scenario spec
// file per simulating experiment of internal/experiments, named by its
// registry id, holding the full-scale, single-seed specs the table or
// figure is rendered from. Each file runs as it is through
// tcplp-bench -scenario; tcplp-bench -exp <id> runs the same file, with
// -scale, -seeds, -variant, -window, -warmup and -duration applied as a
// scenario.Rewrite, and renders the paper's tables from the results.
package paper

import "embed"

// Files holds every <id>.json of this directory.
//
//go:embed *.json
var Files embed.FS
