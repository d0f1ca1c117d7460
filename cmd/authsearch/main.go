// Command authsearch is an end-to-end demonstration of the authenticated
// search pipeline: it indexes a directory of .txt files (or a built-in demo
// corpus), answers queries read from stdin, and verifies every answer
// client-side before displaying it.
//
// Usage:
//
//	authsearch [-dir PATH] [-r N] [-algo tra|tnra] [-scheme mht|cmht] [-shards N]
//	authsearch -build -o corpus.snap [-dir PATH]   # build once, write a snapshot
//	authsearch -build -shards N -o DIR [-dir PATH] # build a sharded snapshot directory
//	authsearch -snapshot corpus.snap [...]         # reopen: no rebuild, no re-signing
//	authsearch -snapshot DIR [...]                 # reopen a sharded snapshot directory
//	authsearch -remote URL [-r N] [...]            # query a running authserved
//
// The default mode runs owner, server and client in one process. With
// -shards N the corpus is split into N independently signed shards,
// queries fan out to all shards in parallel, and the client additionally
// verifies the merged global ranking (docs/SHARDING.md). With -build the
// process performs only the owner role: it builds and signs the
// collection and writes the snapshot artifact that `authserved -snapshot`
// or `authsearch -snapshot` open in milliseconds (docs/SNAPSHOT.md). With
// -remote it becomes the verifying client of a remote server — sharded or
// not, as the verified manifest says — performing the same VO verification
// on answers received over the network. Serving over HTTP is authserved's
// job: it takes the same -dir, -snapshot and -shards inputs.
//
// Each answer line reports the verification verdict, the similarity score,
// and the per-query costs (entries read, I/O time under the simulated disk
// model, VO size).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"authtext"
	"authtext/internal/demo"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "authsearch:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "authsearch:", err)
		os.Exit(1)
	}
}

// config is the fully validated command line; producing it builds nothing.
type config struct {
	dir       string
	r         int
	algo      authtext.Algorithm
	scheme    authtext.Scheme
	remoteURL string
	build     bool
	out       string
	snapshot  string
	shards    int
}

// parseFlags parses and cross-validates the command line before any
// indexing, signing or snapshot I/O happens.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("authsearch", flag.ContinueOnError)
	dir := fs.String("dir", "", "directory of .txt files to index (default: demo corpus)")
	r := fs.Int("r", 5, "number of results per query")
	algoName := fs.String("algo", "tnra", "query algorithm: tra or tnra")
	schemeName := fs.String("scheme", "cmht", "authentication scheme: mht or cmht")
	remoteURL := fs.String("remote", "", "query a running authserved at this URL instead of building a local collection")
	build := fs.Bool("build", false, "build the collection, write the snapshot named by -o, and exit")
	out := fs.String("o", "", "snapshot output path (with -build)")
	snap := fs.String("snapshot", "", "open this snapshot (file or sharded directory) instead of building a collection")
	shards := fs.Int("shards", 0, "split the corpus into N independently signed shards")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cfg := config{
		dir: *dir, r: *r, remoteURL: *remoteURL,
		build: *build, out: *out, snapshot: *snap, shards: *shards,
		algo: authtext.TNRA, scheme: authtext.ChainMHT,
	}
	if strings.EqualFold(*algoName, "tra") {
		cfg.algo = authtext.TRA
	} else if !strings.EqualFold(*algoName, "tnra") {
		return config{}, fmt.Errorf("unknown -algo %q", *algoName)
	}
	if strings.EqualFold(*schemeName, "mht") {
		cfg.scheme = authtext.MHT
	} else if !strings.EqualFold(*schemeName, "cmht") {
		return config{}, fmt.Errorf("unknown -scheme %q", *schemeName)
	}
	if cfg.r < 1 {
		return config{}, fmt.Errorf("-r %d out of range", cfg.r)
	}
	if cfg.shards < 0 {
		return config{}, fmt.Errorf("-shards %d out of range", cfg.shards)
	}
	if cfg.shards > 0 && cfg.snapshot != "" {
		return config{}, errors.New("-shards and -snapshot are mutually exclusive: a sharded snapshot directory fixes its own shard count")
	}
	if cfg.shards > 0 && cfg.remoteURL != "" {
		return config{}, errors.New("-shards has no effect with -remote: the remote server chose its own shard count")
	}

	if cfg.remoteURL != "" && cfg.dir != "" {
		return config{}, errors.New("-dir has no effect with -remote: the remote server chose its own collection")
	}
	if cfg.snapshot != "" && cfg.dir != "" {
		return config{}, errors.New("-snapshot and -dir are mutually exclusive: the snapshot already contains its collection")
	}
	if cfg.snapshot != "" && cfg.remoteURL != "" {
		return config{}, errors.New("-snapshot has no effect with -remote")
	}
	if cfg.build {
		if cfg.out == "" {
			return config{}, errors.New("-build requires -o FILE")
		}
		if cfg.snapshot != "" || cfg.remoteURL != "" {
			return config{}, errors.New("-build only builds: it excludes -snapshot and -remote")
		}
	} else if cfg.out != "" {
		return config{}, errors.New("-o requires -build")
	}
	return cfg, nil
}

func run(cfg config) error {
	if cfg.remoteURL != "" {
		return runRemote(cfg.remoteURL, cfg.r, cfg.algo, cfg.scheme)
	}

	var (
		server *authtext.Server
		client *authtext.Client
		names  func(globalID int) string
	)
	if cfg.snapshot != "" {
		start := time.Now()
		var err error
		server, client, err = authtext.OpenSnapshotFile(cfg.snapshot)
		if err != nil {
			return err
		}
		what := "snapshot " + cfg.snapshot
		if server.Shards() > 0 {
			what = fmt.Sprintf("sharded snapshot %s (%d shards)", cfg.snapshot, server.Shards())
		}
		fmt.Printf("opened %s in %s (no rebuild, no re-signing)\n", what, time.Since(start).Round(time.Millisecond))
		names = func(globalID int) string { return fmt.Sprintf("doc-%d", globalID) }
	} else {
		docs, docNames, err := demo.Load(cfg.dir)
		if err != nil {
			return err
		}
		var owner *authtext.Owner
		if cfg.shards > 0 {
			fmt.Printf("indexing %d documents into %d shards, building authentication structures (RSA-1024)...\n",
				len(docs), cfg.shards)
			owner, err = authtext.NewShardedOwner(docs, cfg.shards, authtext.WithVocabularyProofs())
		} else {
			fmt.Printf("indexing %d documents and building authentication structures (RSA-1024)...\n", len(docs))
			owner, err = authtext.NewOwner(docs, authtext.WithVocabularyProofs())
		}
		if err != nil {
			return err
		}
		buildMs, sigs, devBytes := owner.Stats()
		built := "built"
		if cfg.shards > 0 {
			built = fmt.Sprintf("built %d shards (parallel)", owner.Shards())
		}
		fmt.Printf("%s in %.0f ms: %d signatures, %.1f MB on the simulated disk\n",
			built, buildMs, sigs, float64(devBytes)/(1<<20))

		if cfg.build {
			return writeSnapshot(owner, cfg.out)
		}
		server, client = owner.Server(), owner.Client()
		names = func(globalID int) string { return docNames[globalID] }
	}

	fmt.Printf("ready — %s-%s, top-%d; type a query (empty line to quit)\n", cfg.algo, cfg.scheme, cfg.r)
	return repl(func(query string) {
		res, err := server.Search(query, cfg.r, cfg.algo, cfg.scheme)
		if err != nil {
			fmt.Println("  error:", err)
			return
		}
		verdict := "VERIFIED"
		if err := client.Verify(query, cfg.r, res); err != nil {
			verdict = "REJECTED: " + err.Error()
		}
		printResult(verdict, res, names)
	})
}

// writeSnapshot persists the built collection (owner role of the
// build-once / serve-many deployment): one file, or a shard set's directory.
func writeSnapshot(owner *authtext.Owner, path string) error {
	if owner.Shards() > 0 {
		if err := owner.WriteSnapshotDir(path); err != nil {
			return err
		}
		fmt.Printf("wrote sharded snapshot directory %s (%d shards); serve it with: authserved -snapshot %s\n",
			path, owner.Shards(), path)
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := owner.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(path) // don't leave a truncated artifact behind
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote snapshot %s (%.1f MB); serve it with: authserved -snapshot %s\n",
		path, float64(info.Size())/(1<<20), path)
	return nil
}

// runRemote is the verifying-client mode: every answer from the remote
// server — a shard set's every shard answer and merged ranking — is verified
// locally before being displayed.
func runRemote(url string, r int, algo authtext.Algorithm, scheme authtext.Scheme) error {
	rc, err := authtext.NewRemoteClient(url)
	if err != nil {
		return err
	}
	ctx := context.Background()
	health, err := rc.Health(ctx)
	if err != nil {
		return fmt.Errorf("server unreachable: %w", err)
	}
	if err := rc.Bootstrap(ctx); err != nil {
		return fmt.Errorf("manifest bootstrap failed: %w", err)
	}
	shape := fmt.Sprintf("%d terms", health.Terms)
	if rc.Shards() > 0 {
		shape = fmt.Sprintf("%d shards", rc.Shards())
	}
	if gen := rc.Generation(); gen > 0 {
		shape += fmt.Sprintf(", live generation %d", gen)
	}
	fmt.Printf("connected to %s — %d documents, %s; manifest verified\n", url, health.Documents, shape)
	fmt.Printf("ready — %s-%s, top-%d; type a query (empty line to quit)\n", algo, scheme, r)
	return repl(func(query string) {
		res, err := rc.Search(ctx, query, r, algo, scheme)
		if err != nil {
			if authtext.IsTampered(err) {
				fmt.Println("  [REJECTED — SERVER RESPONSE FAILED VERIFICATION]", err)
			} else {
				fmt.Println("  error:", err)
			}
			return
		}
		label := "VERIFIED"
		if res.Generation > 0 {
			label = fmt.Sprintf("VERIFIED @ generation %d", res.Generation)
		}
		printResult(label, res, func(globalID int) string { return fmt.Sprintf("doc-%d", globalID) })
	})
}

// repl reads queries from stdin until an empty line or EOF.
func repl(answer func(query string)) error {
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("query> ")
		if !scanner.Scan() {
			break
		}
		query := strings.TrimSpace(scanner.Text())
		if query == "" {
			break
		}
		answer(query)
	}
	return scanner.Err()
}

// printResult shows one answer; name labels a hit by its index in the
// original corpus (a shard set's hits also say which shard answered).
func printResult(verdict string, res *authtext.SearchResult, name func(globalID int) string) {
	st := res.Stats
	if st.Shards > 0 {
		fmt.Printf("  [%s] shards=%d entries=%d io=%s vo=%dB wall=%s\n",
			verdict, st.Shards, st.EntriesRead, st.IOTime, st.VOBytes, st.ServerTime)
	} else {
		fmt.Printf("  [%s] q=%d entries/term=%.1f io=%s vo=%dB\n",
			verdict, st.QueryTerms, st.EntriesPerTerm, st.IOTime, st.VOBytes)
	}
	for i, h := range res.Hits {
		where := ""
		if st.Shards > 0 {
			where = fmt.Sprintf(" [shard %d]", h.Shard)
		}
		fmt.Printf("  %2d. (%.4f) %s%s: %s\n", i+1, h.Score, name(h.GlobalID), where, snippet(h.Content, 70))
	}
	if len(res.Hits) == 0 {
		fmt.Println("  no matching documents")
	}
}

func snippet(b []byte, n int) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
