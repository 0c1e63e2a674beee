// Command dtgen generates Quest/SLIQ synthetic training data (Agrawal et
// al.'s nine-attribute generator, the dataset of the paper's experiments)
// and writes it as CSV.
//
// Usage:
//
//	dtgen -n 100000 -function 2 -seed 1998 -o train.csv [-discretize]
//
// With -discretize the six continuous attributes are pre-binned with the
// paper's equal-interval counts (salary 13, commission 14, age 6, hvalue
// 11, hyears 10, loan 20), producing the all-categorical dataset of the
// Figure 6/7 experiments.
//
// With -attrs N (N ≥ 9) the schema is widened to N attributes: the nine
// paper attributes keep their exact values and still solely determine
// the class, and N−9 synthetic noise attributes are appended (alternating
// continuous and small-cardinality categorical) — the wide substrate of
// the voted-split-selection experiments. Works with both CSV and -ooc.
//
// With -bootstrap the emitted rows are an N-of-N with-replacement
// resample of the generated block, drawn from the same deterministic
// stream the forest trainer uses (-sample-seed, member 0) — so a bagging
// input materialized to CSV matches in-process ensemble training exactly.
//
// With -ooc the output is an on-disk column store directory instead of
// CSV, written row by row with bounded resident memory (one record plus
// one encoding chunk) — the path for training sets far larger than RAM:
//
//	dtgen -n 100000000 -ooc -o train.store [-chunk-rows 8192] [-discretize]
//
// The store holds exactly the rows the CSV path would emit (gated by the
// round-trip tests). -bootstrap is not supported out-of-core (the
// resample index is itself Θ(n) resident).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/forest"
	"partree/internal/quest"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	var f flagError
	if err != nil && !errors.Is(err, flag.ErrHelp) && !errors.As(err, &f) {
		fmt.Fprintln(os.Stderr, "dtgen:", err)
	}
	os.Exit(exitCode(err))
}

// usageError is a rejected command line. It is returned before anything
// is written.
type usageError string

func (e usageError) Error() string { return string(e) }

// flagError is a command line the flag package rejected; the flag package
// has already printed the error and the usage.
type flagError struct{ error }

// exitCode is the process status for run's result: 0 on success or -h,
// 2 for a rejected command line (as the flag package's own ExitOnError
// handling would), 1 for any other failure.
func exitCode(err error) int {
	var u usageError
	var f flagError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &u), errors.As(err, &f):
		return 2
	}
	return 1
}

// run parses args and writes the generated rows: CSV to stdout (or -o), or
// an on-disk column store with -ooc.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dtgen", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 100000, "number of records")
		fn         = fs.Int("function", 2, "classification function 1..10")
		seed       = fs.Uint64("seed", 1998, "generator seed")
		attrs      = fs.Int("attrs", 0, "widen the schema to this many attributes (0 = the 9 paper attributes; extras are synthetic noise)")
		out        = fs.String("o", "", "output file (default stdout)")
		disc       = fs.Bool("discretize", false, "apply the paper's uniform discretization")
		blocks     = fs.Int("blocks", 1, "emit only block i of this many (with -block)")
		block      = fs.Int("block", 0, "block index to emit (0-based)")
		bootstrap  = fs.Bool("bootstrap", false, "emit a with-replacement resample of the block (bagging input)")
		sampleSeed = fs.Uint64("sample-seed", 1, "master seed of the -bootstrap draw (forest trainer stream, member 0)")
		ooc        = fs.Bool("ooc", false, "write an on-disk column store directory instead of CSV (bounded RAM)")
		chunkRows  = fs.Int("chunk-rows", dataset.DefaultChunkRows, "rows per chunk of the -ooc store")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return flagError{err}
	}

	if *block < 0 || *block >= *blocks {
		return usageError(fmt.Sprintf("block %d out of range 0..%d", *block, *blocks-1))
	}
	lo := *block * *n / *blocks
	hi := (*block + 1) * *n / *blocks
	cfg := quest.Config{Function: *fn, Seed: *seed, Attrs: *attrs}

	if *ooc {
		if *bootstrap {
			return usageError("-bootstrap is not supported with -ooc (the resample index is Θ(n) resident)")
		}
		if *out == "" {
			return usageError("-ooc requires -o (store directory)")
		}
		return generateStore(cfg, lo, hi, *out, *chunkRows, *disc)
	}

	d, err := quest.GenerateBlock(cfg, lo, hi)
	if err != nil {
		return usageError(err.Error())
	}
	if *bootstrap {
		d = d.Select(forest.BootstrapIndices(*sampleSeed, 0, d.Len()))
		// Resampled rows duplicate source records; fresh ids keep the
		// emitted block's record ids unique, like any generated block.
		d.AssignRIDs(int64(lo))
	}
	if *disc {
		d = discretize.UniformPaper(d, quest.PaperBins(), quest.Ranges())
	}

	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			return err
		}
		defer f.Close() // error paths; the success path checks Close below
		stdout = f
	}
	w := bufio.NewWriter(stdout)
	if err := dataset.WriteCSV(w, d); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if f != nil {
		return f.Close()
	}
	return nil
}

// recodeSink recodes each generated record through a discretizer before
// handing it to the store writer, keeping the -ooc -discretize path at
// one resident record.
type recodeSink struct {
	rc  *discretize.Recoder
	dst dataset.RowSink
	rec dataset.Record
}

func (s *recodeSink) AppendRow(r dataset.Record) error {
	s.rc.Recode(r, &s.rec)
	return s.dst.AppendRow(s.rec)
}

// generateStore streams rows [lo, hi) of the generator straight into an
// on-disk column store at dir, optionally pre-binned with the paper's
// uniform discretization.
func generateStore(cfg quest.Config, lo, hi int, dir string, chunkRows int, disc bool) error {
	schema := cfg.SchemaOf()
	var rc *discretize.Recoder
	outSchema := schema
	if disc {
		rc = discretize.UniformPaperRecoder(schema, quest.PaperBins(), quest.Ranges())
		outSchema = rc.Schema()
	}
	w, err := dataset.NewStoreWriter(dir, outSchema, chunkRows)
	if err != nil {
		return err
	}
	var sink dataset.RowSink = w
	if rc != nil {
		sink = &recodeSink{rc: rc, dst: w, rec: dataset.NewRecord(outSchema)}
	}
	if err := quest.GenerateTo(cfg, lo, hi, sink); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
