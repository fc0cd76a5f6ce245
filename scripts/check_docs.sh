#!/bin/sh
# Fails if any src/ module is missing from docs/ARCHITECTURE.md, so the
# architecture document cannot silently fall behind the tree. Wired into
# ctest as the `docs_check` test (see the top-level CMakeLists.txt); run it
# from the repository root.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
doc="$root/docs/ARCHITECTURE.md"

if [ ! -f "$doc" ]; then
  echo "check_docs: missing $doc" >&2
  exit 1
fi

status=0
for dir in "$root"/src/*/; do
  module="$(basename "$dir")"
  # A module counts as documented if ARCHITECTURE.md mentions it backticked,
  # as `module` or inside a path/library name such as `src/module` or
  # `cim_module`.
  if ! grep -Eq "\`(src/)?${module}\`|\`cim_${module}\`" "$doc"; then
    echo "check_docs: src/${module} is not documented in docs/ARCHITECTURE.md" >&2
    status=1
  fi
done

# The documented library table must also stay complete: every cim_* library
# defined in the build should appear.
for lib in $(grep -rhoE "add_library\(cim_[a-z_]+" "$root"/src/*/CMakeLists.txt \
    | sed 's/add_library(//' | sort -u); do
  if ! grep -q "\`${lib}\`" "$doc"; then
    echo "check_docs: library ${lib} is not documented in docs/ARCHITECTURE.md" >&2
    status=1
  fi
done

# docs/WIRE.md is the normative wire-format description: it must exist, and
# every wire type label the codec knows (src/net/wire.cpp) must be described
# in it, so the layout tables cannot silently fall behind the enum.
wire_doc="$root/docs/WIRE.md"
if [ ! -f "$wire_doc" ]; then
  echo "check_docs: missing $wire_doc" >&2
  status=1
else
  for label in control pair vc_update tob_publish tob_deliver partial_update \
      cbcast transport_frame stats; do
    if ! grep -q "$label" "$wire_doc"; then
      echo "check_docs: wire type '${label}' is not documented in docs/WIRE.md" >&2
      status=1
    fi
  done
  for sym in kWireVersion kMaxBodyBytes kMaxClockEntries kMaxNestingDepth \
      kTransportVersion2 kMaxStatsEntries kMaxStatsKeyBytes; do
    if ! grep -q "$sym" "$wire_doc"; then
      echo "check_docs: wire constant ${sym} is not documented in docs/WIRE.md" >&2
      status=1
    fi
  done
fi

# docs/BRIDGE.md is the normative mesh description: it must exist, name
# every join-reject reason the handshake can send (src/mesh/mesh_node.cpp),
# and document the mesh counters and the spec keywords, so the protocol
# description cannot silently fall behind the implementation.
bridge_doc="$root/docs/BRIDGE.md"
if [ ! -f "$bridge_doc" ]; then
  echo "check_docs: missing $bridge_doc" >&2
  status=1
else
  for reason in "wire version mismatch" "topology hash mismatch" \
      "not a neighbor" "duplicate join" "stale session id"; do
    if ! grep -q "$reason" "$bridge_doc"; then
      echo "check_docs: reject reason '${reason}' is not documented in docs/BRIDGE.md" >&2
      status=1
    fi
  done
  for word in "nodes" "edge" "base_port" "done" "bye" "net.mesh" \
      "topology hash" "writev" "heartbeat" "rejoin" "replay journal" \
      "--resume" "backoff" "StatsFrame" "--stats-interval" "--fed-metrics" \
      "cim_top" "fed.node" "stats_parent" "closing handshake" \
      "acked immediately" "owed acks written" "grace_exits"; do
    if ! grep -q -- "$word" "$bridge_doc"; then
      echo "check_docs: '${word}' is not documented in docs/BRIDGE.md" >&2
      status=1
    fi
  done
fi

# docs/CHECKER.md is the normative description of the columnar history
# store and the sparse constraint engine: it must exist, name every bad
# pattern the checker can report (src/checker/causal_checker.h), and
# document the storage/engine pieces and tuning knobs, so the checker
# description cannot silently fall behind the implementation.
checker_doc="$root/docs/CHECKER.md"
if [ ! -f "$checker_doc" ]; then
  echo "check_docs: missing $checker_doc" >&2
  status=1
else
  for pattern in CyclicCO ThinAirRead WriteCOInitRead WriteCORead CyclicHB \
      WriteHBInitRead CyclicCF ResidualLimit; do
    if ! grep -q "$pattern" "$checker_doc"; then
      echo "check_docs: bad pattern '${pattern}' is not documented in docs/CHECKER.md" >&2
      status=1
    fi
  done
  for word in SparseGraph HistoryBuilder VarProcWrites bytes_per_op \
      struct_bytes_per_op residual_budget kCC kCM kCCv \
      BENCH_checker.json CIM_CHECKER_BENCH_OPS; do
    if ! grep -q "$word" "$checker_doc"; then
      echo "check_docs: '${word}' is not documented in docs/CHECKER.md" >&2
      status=1
    fi
  done
fi

# docs/FAULTS.md owns the fault-injection model; the socket-level chaos
# hooks (src/net/fault_inject.h) and the chaos smoke must be described
# there, so a new hook cannot ship undocumented.
faults_doc="$root/docs/FAULTS.md"
if [ ! -f "$faults_doc" ]; then
  echo "check_docs: missing $faults_doc" >&2
  status=1
else
  for word in FaultHooks max_write_bytes fail_writes_after fail_reads_after \
      stall_writes dispatch_delay_us mesh_chaos_smoke; do
    if ! grep -q "$word" "$faults_doc"; then
      echo "check_docs: '${word}' is not documented in docs/FAULTS.md" >&2
      status=1
    fi
  done
fi

# docs/PROTOCOLS.md describes every MCS-protocol: each protocol_name()
# string in src/protocols needs a "## <name>" heading there.
protocols_doc="$root/docs/PROTOCOLS.md"
if [ ! -f "$protocols_doc" ]; then
  echo "check_docs: missing $protocols_doc" >&2
  status=1
else
  names="$(grep -rhoE 'protocol_name\(\) const override \{ return "[^"]+"' \
      "$root"/src/protocols | sed -E 's/.*return "([^"]+)"/\1/' | sort -u)"
  if [ -z "$names" ]; then
    echo "check_docs: no protocol_name() found in src/protocols" >&2
    status=1
  fi
  for name in $names; do
    if ! grep -Eq "^## ${name}( |\$)" "$protocols_doc"; then
      echo "check_docs: protocol '${name}' has no '## ${name}' heading in docs/PROTOCOLS.md" >&2
      status=1
    fi
  done
fi

# docs/OBSERVABILITY.md's online-monitor paragraph must say how the monitor
# is fed: it is a MemoryObserver on the write-lifecycle stream, not a trace
# consumer that turns tracing on.
obs_doc="$root/docs/OBSERVABILITY.md"
monitor_par="$(awk '/^The monitor is a bounded-memory/{p=1} p&&/^$/{exit} p' \
    "$obs_doc" 2>/dev/null)"
if ! printf '%s\n' "$monitor_par" | grep -q "MemoryObserver"; then
  echo "check_docs: the monitor paragraph of docs/OBSERVABILITY.md does not name MemoryObserver" >&2
  status=1
fi
if grep -rlq "forces tracing on" "$root"/docs; then
  echo "check_docs: docs/ still claims the monitor forces tracing on" >&2
  status=1
fi

# obs::SpanIndex is the one per-write latency table: the docs must not name
# the visibility tracker it replaced or its removed live-ring entry point,
# and the per-hop latency metrics must say they exist only on
# in-federation links (over a mesh link the pair's stamps come from another
# process's virtual clock, so no sample is taken).
for word in "VisibilityTracker" "index(const obs::TraceSink"; do
  if grep -rqF -- "$word" "$root"/docs "$root"/README.md; then
    echo "check_docs: docs/ or README.md still names the removed '${word}'" >&2
    status=1
  fi
done
for metric in isc.pair_hop_latency isc.propagation_latency; do
  if ! grep -F "| \`${metric}\` |" "$obs_doc" | grep -q "in-federation links only"; then
    echo "check_docs: the ${metric} row of docs/OBSERVABILITY.md does not say 'in-federation links only'" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_docs: OK"
fi
exit "$status"
