package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cogg/internal/blob"
)

// runCache is the `cogg cache` subcommand: operator tooling over the
// shared on-disk artifact tier. The blob store itself is digest-keyed
// and anonymous; the index sidecar names the table modules, so `ls` is
// a join of the two, `gc` deletes what no manifest row references, and
// `verify` re-hashes every entry offline. Blobs without a row are the
// daemon's deck cache: `ls` lists them as unreferenced and `gc` deletes
// them once they are older than -min-age (a deleted deck recompiles).
func runCache(args []string) {
	fs := flag.NewFlagSet("cogg cache", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `usage: cogg cache <ls|gc|verify> -dir DIR [flags]

  ls      list cached artifacts (manifest rows joined with blob state)
  gc      delete unreferenced blobs older than -min-age
  verify  re-hash every blob and cross-check the manifest

The manifest (index.json) names table modules only. Unreferenced blobs
are deck cache the daemon rebuilds on a miss: gc candidates by age.

flags:
`)
		fs.PrintDefaults()
	}
	dir := fs.String("dir", "", "blob store directory (the daemon's -cache)")
	minAge := fs.Duration("min-age", time.Hour, "gc: age floor for unreferenced blobs, counted from the write")
	if len(args) == 0 {
		fs.Usage()
		os.Exit(2)
	}
	verb := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		fatal(err)
	}
	if *dir == "" {
		fatal(fmt.Errorf("cache %s: -dir is required", verb))
	}
	store := blob.NewFS(*dir)
	switch verb {
	case "ls":
		cacheLs(store)
	case "gc":
		cacheGC(store, *minAge)
	case "verify":
		cacheVerify(store)
	default:
		fatal(fmt.Errorf("cache: unknown verb %q (ls, gc, verify)", verb))
	}
}

// cacheLs joins the manifest with the blobs on disk. Indexed rows (the
// table modules) print with their names; blobs no row references (deck
// cache) print as anonymous gc candidates. Quarantined entries are
// always surfaced.
func cacheLs(store *blob.FS) {
	ix, err := blob.ReadIndex(store.Dir())
	if err != nil && !os.IsNotExist(err) {
		fatal(err)
	}
	infos, err := store.List(nil)
	if err != nil {
		fatal(err)
	}
	onDisk := map[string]blob.Info{}
	for _, in := range infos {
		onDisk[in.Key] = in
	}
	var rows int
	if ix != nil {
		for _, e := range ix.Sorted() {
			state := "MISSING"
			if _, ok := onDisk[e.Key]; ok {
				state = "ok"
				delete(onDisk, e.Key)
			}
			fmt.Printf("%-8s %-40s %-12s %8d  %s  %s\n",
				e.Kind, e.Name, e.Key[:12], e.Size, e.Updated.Format("2006-01-02 15:04"), state)
			rows++
		}
	}
	for _, in := range onDisk {
		fmt.Printf("%-8s %-40s %-12s %8d  %-16s  %s\n",
			"blob", "(unreferenced)", in.Key[:12], in.Size, "", "no manifest row")
		rows++
	}
	for _, q := range store.QuarantineFiles() {
		fmt.Printf("%-8s %-40s %s\n", "QUARANT", q, "held for inspection")
		rows++
	}
	fmt.Printf("%d entries\n", rows)
}

func cacheGC(store *blob.FS, minAge time.Duration) {
	res, err := blob.GC(store, minAge)
	if err != nil {
		fatal(err)
	}
	for _, k := range res.Deleted {
		fmt.Printf("deleted %s\n", k[:12])
	}
	fmt.Printf("gc: %d deleted (%d bytes), %d referenced kept, %d young kept, %d quarantined held\n",
		len(res.Deleted), res.BytesFreed, res.KeptRef, len(res.KeptYoung), len(res.Quarantined))
}

func cacheVerify(store *blob.FS) {
	res, err := blob.Verify(store)
	if err != nil {
		fatal(err)
	}
	for _, k := range res.Bad {
		fmt.Printf("BAD %s (quarantined)\n", k[:12])
	}
	for _, d := range res.IndexDrift {
		fmt.Printf("DRIFT %s\n", d)
	}
	fmt.Printf("verify: %d checked, %d bad, %d manifest drift\n",
		res.Checked, len(res.Bad), len(res.IndexDrift))
	if len(res.Bad) > 0 || len(res.IndexDrift) > 0 {
		os.Exit(1)
	}
}
