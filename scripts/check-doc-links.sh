#!/usr/bin/env bash
# Doc-link check: every relative markdown link in the top-level docs must
# resolve to an existing file, and the quickstart README must link the
# architecture and migration guides. Run from anywhere; CI runs it after
# the rustdoc build.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
docs=(README.md ARCHITECTURE.md MIGRATION.md)

for f in "${docs[@]}"; do
    if [ ! -f "$f" ]; then
        echo "missing doc file: $f"
        fail=1
        continue
    fi
    # Markdown links: ](target). Skip absolute URLs and pure anchors;
    # strip any #fragment before checking the path exists.
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"
        [ -z "$path" ] && continue
        if [ ! -e "$path" ]; then
            echo "$f: broken link -> $target"
            fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//')
done

# Cross-reference contract: the quickstart links both guides, and the
# architecture doc links back.
grep -q '](ARCHITECTURE.md)' README.md || { echo "README.md must link ARCHITECTURE.md"; fail=1; }
grep -q '](MIGRATION.md)' README.md || { echo "README.md must link MIGRATION.md"; fail=1; }
grep -q '](README.md)' ARCHITECTURE.md || { echo "ARCHITECTURE.md must link README.md"; fail=1; }

# Content contract for the batch-update / lock-free-read surface: the
# invalidation table must cover changesets, and both guides must
# document the lock-free published-snapshot read path.
grep -q 'stage_batch' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the batch/changeset API (stage_batch)"; fail=1; }
grep -q 'Changeset' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md invalidation table must cover Changeset batches"; fail=1; }
grep -qi 'lock-free' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the lock-free view-cache read path"; fail=1; }
grep -q 'Changeset' MIGRATION.md \
    || { echo "MIGRATION.md concurrent-usage must cover the Changeset batch API"; fail=1; }
grep -q 'arc-swap' MIGRATION.md \
    || { echo "MIGRATION.md concurrent-usage must cover the arc-swap read path"; fail=1; }

# Content contract for the network front end: the architecture doc must
# document the serving layer and its group-commit write path, the
# quickstart must show how to start/drive the server, and the migration
# guide must point embedders at citesys-net.
grep -q '## Network front end' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must have a 'Network front end' section"; fail=1; }
grep -qi 'group commit' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the group-commit write path"; fail=1; }
grep -q 'snapshot_swaps' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must explain the commits-vs-swaps accounting"; fail=1; }
grep -q 'serve --listen' README.md \
    || { echo "README.md must quickstart 'citesys serve --listen'"; fail=1; }
grep -q 'citesys client\|bin citesys -- client' README.md \
    || { echo "README.md must quickstart the client mode"; fail=1; }
grep -q 'citesys-net' MIGRATION.md \
    || { echo "MIGRATION.md must cover the citesys-net front end"; fail=1; }

# Content contract for the durability layer: the architecture doc must
# have a Durability section with the WAL/checkpoint/recovery story and
# the on-disk format-version table, the quickstart must show
# --data-dir, and the migration guide must record the --plan-cache
# removal (and nothing may still advertise the flag as usable).
grep -q '## Durability' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must have a 'Durability' section"; fail=1; }
grep -q 'write-ahead log\|WAL' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the write-ahead log"; fail=1; }
grep -qi 'format version' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must include the on-disk format-version table"; fail=1; }
grep -q 'DurableStore' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the DurableStore trait"; fail=1; }
grep -q 'data-dir' README.md \
    || { echo "README.md must quickstart 'serve --data-dir'"; fail=1; }
grep -q 'citesys recover\|bin citesys -- recover' README.md \
    || { echo "README.md must show the recover subcommand"; fail=1; }
grep -q '## Removed in this version' MIGRATION.md \
    || { echo "MIGRATION.md must have the 'Removed in this version' table"; fail=1; }
grep -q 'serve --plan-cache.*|.*serve --data-dir' MIGRATION.md \
    || { echo "MIGRATION.md must map the removed --plan-cache to --data-dir"; fail=1; }
grep -q 'CitationEngine.*|.*CitationService' MIGRATION.md \
    || { echo "MIGRATION.md must map the removed CitationEngine to CitationService"; fail=1; }
if grep -n 'serve --plan-cache' README.md; then
    echo "README.md must not quickstart the removed --plan-cache flag"; fail=1
fi

# Content contract for the one write path: the architecture doc must
# name Store::seal as where "ack implies durable" holds, with the
# rollback after a failed append; the migration guide must map the
# removed IncrementalEngine and E14/E15; nothing else may still
# advertise them.
grep -q 'Store::seal' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must name Store::seal as the commit path"; fail=1; }
grep -q 'discard_pending' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the rollback after a failed WAL append"; fail=1; }
grep -q 'IncrementalEngine.*|.*citesys_core::Store' MIGRATION.md \
    || { echo "MIGRATION.md must map the removed IncrementalEngine to citesys_core::Store"; fail=1; }
grep -q 'E14, E15.*|.*lookup.*curate' MIGRATION.md \
    || { echo "MIGRATION.md must map the removed E14/E15 to the benchmark workloads"; fail=1; }
if grep -n 'IncrementalEngine\|\be14\b\|\be15\b\|E14\|E15' README.md ARCHITECTURE.md; then
    echo "README.md and ARCHITECTURE.md must not advertise IncrementalEngine or E14/E15"; fail=1
fi

# Content contract for the one measuring system: the migration guide
# must say what measures each deleted system-perf arm (E13, E16–E22)
# now, or that nothing does yet; nothing else may still advertise them.
for arm in E13 E16 E17 E18 E19 E20 E21 E22; do
    grep -q "^| $arm (.*|" MIGRATION.md \
        || { echo "MIGRATION.md must map the removed $arm"; fail=1; }
done
if grep -n '\be1[3-9]\b\|\be2[0-2]\b\|E1[3-9]\b\|E2[0-2]\b' README.md ARCHITECTURE.md; then
    echo "README.md and ARCHITECTURE.md must not advertise E13 or E16–E22"; fail=1
fi

# Content contract for the one citation algebra: the migration guide
# must map the removed provenance crate to core's CiteExpr, and nothing
# else may still advertise the crate.
grep -q 'citesys_provenance.*|.*citesys_core::CiteExpr' MIGRATION.md \
    || { echo "MIGRATION.md must map the removed citesys_provenance to citesys_core::CiteExpr"; fail=1; }
if grep -n 'citesys-provenance' README.md ARCHITECTURE.md; then
    echo "README.md and ARCHITECTURE.md must not advertise citesys-provenance"; fail=1
fi

# Content contract for the replication subsystem: the architecture doc
# must have a Replication section covering the readonly rejection and
# the lag counter, the quickstart must show `serve --follow`, and the
# migration guide must record the new readonly error class.
grep -q '## Replication' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must have a 'Replication' section"; fail=1; }
grep -q 'err readonly' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the 'err readonly' rejection"; fail=1; }
grep -q 'replica_lag_versions' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the replica_lag_versions counter"; fail=1; }
grep -q 'serve --follow\|--follow 127' README.md \
    || { echo "README.md must quickstart 'serve --follow'"; fail=1; }
grep -q 'replica_lag_versions' README.md \
    || { echo "README.md must mention the replica_lag_versions observable"; fail=1; }
grep -q 'readonly' MIGRATION.md \
    || { echo "MIGRATION.md must record the readonly error class"; fail=1; }
grep -q -- '--follow' MIGRATION.md \
    || { echo "MIGRATION.md must cover serve --follow"; fail=1; }

# Content contract for the event-driven transport: the architecture
# doc must document the event loop, tag framing and backpressure, and
# the quickstart must show --event-loop and the pipelined client mode.
grep -q '## Event loop & pipelining' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must have an 'Event loop & pipelining' section"; fail=1; }
grep -q 'ok @' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the @tag response framing"; fail=1; }
grep -qi 'backpressure' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the event loop's backpressure rules"; fail=1; }
grep -q -- '--event-loop' README.md \
    || { echo "README.md must quickstart 'serve --event-loop'"; fail=1; }
grep -q 'client --pipeline' README.md \
    || { echo "README.md must show the pipelined client mode"; fail=1; }

# Content contract for time travel & history lifecycle: the
# architecture doc must document the anchor/retention/compaction
# story and the @ version semantics, the quickstart must show
# `cite … @ <version>` with the lifecycle flags, and the migration
# guide must record the compacted-history error surface.
grep -q '## Time travel & history lifecycle' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must have a 'Time travel & history lifecycle' section"; fail=1; }
grep -q 'anchors/' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the anchors/ layout"; fail=1; }
grep -q 'history_base_version' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the history_base_version counter"; fail=1; }
grep -q 'CompactedVersion' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the CompactedVersion error"; fail=1; }
grep -q '@ <version>\|@ .version' README.md \
    || { echo "README.md must quickstart 'cite … @ <version>'"; fail=1; }
grep -q -- '--checkpoint-every' README.md \
    || { echo "README.md must show serve --checkpoint-every"; fail=1; }
grep -q -- '--retain-checkpoints' README.md \
    || { echo "README.md must show serve --retain-checkpoints"; fail=1; }
grep -q 'history_base_version' README.md \
    || { echo "README.md must mention the history_base_version observable"; fail=1; }
grep -q 'CompactedVersion\|compacted by a checkpoint' MIGRATION.md \
    || { echo "MIGRATION.md must record the compacted-history error"; fail=1; }
grep -q -- '--retain-checkpoints' MIGRATION.md \
    || { echo "MIGRATION.md must cover the --retain-checkpoints behaviour change"; fail=1; }

# Content contract for the observability layer: the architecture doc
# must document the span taxonomy, the metric naming table and the
# scrape endpoint contract, the quickstart must show --metrics and the
# slow-cite log, and the migration guide must record the
# registry-backed stats change.
grep -q '## Observability' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must have an 'Observability' section"; fail=1; }
grep -q '### Span taxonomy' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the span taxonomy"; fail=1; }
grep -q 'plan_lookup' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md span taxonomy must name the cite stages"; fail=1; }
grep -q 'citesys_cite_stage_seconds' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must include the metric naming table"; fail=1; }
grep -q '### Scrape endpoint contract' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the scrape endpoint contract"; fail=1; }
grep -q 'text/plain; version=0.0.4' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must pin the exposition content type"; fail=1; }
grep -q -- '--metrics' README.md \
    || { echo "README.md must quickstart 'serve --metrics'"; fail=1; }
grep -q -- '--slow-cite-ms' README.md \
    || { echo "README.md must quickstart --slow-cite-ms"; fail=1; }
grep -q '^slow-cite total=' README.md \
    || { echo "README.md must show a slow-cite log line"; fail=1; }
grep -q 'registry' MIGRATION.md \
    || { echo "MIGRATION.md must record the registry-backed stats migration"; fail=1; }
grep -q 'sorted by name' MIGRATION.md \
    || { echo "MIGRATION.md must record the sorted stats output"; fail=1; }

# Content contract for the ingestion vertical: the architecture doc
# must document the dataset registry, the manifest codec and the
# tamper exit code, the quickstart must show the ingest CLI and
# dataset verify, and the migration guide must record the load/ingest
# behaviour change and the new exit code.
grep -q '## Dataset registry & ingestion' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must have a 'Dataset registry & ingestion' section"; fail=1; }
grep -q 'citesys-datasets v1' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must pin the datasets.lock format version"; fail=1; }
grep -q 'datasets.lock' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the datasets.lock manifest"; fail=1; }
grep -q 'datasets.audit' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the append-only audit log"; fail=1; }
grep -q 'peak_buffered_bytes' ARCHITECTURE.md \
    || { echo "ARCHITECTURE.md must document the bounded-memory reader contract"; fail=1; }
grep -q 'citesys ingest\|bin citesys -- ingest' README.md \
    || { echo "README.md must quickstart 'citesys ingest'"; fail=1; }
grep -q 'dataset verify' README.md \
    || { echo "README.md must quickstart 'dataset verify'"; fail=1; }
grep -q 'exit 6' README.md \
    || { echo "README.md must show the tamper exit code 6"; fail=1; }
grep -q 'datasets.lock' README.md \
    || { echo "README.md must mention the datasets.lock manifest"; fail=1; }
grep -q 'key(i' MIGRATION.md \
    || { echo "MIGRATION.md must record the load key-clause change"; fail=1; }
grep -q 'exit code 6' MIGRATION.md \
    || { echo "MIGRATION.md must record the dataset-verify exit code"; fail=1; }

if [ "$fail" -eq 0 ]; then
    echo "doc links ok (${docs[*]})"
fi
exit "$fail"
