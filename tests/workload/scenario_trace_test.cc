// The scenario generator and trace format by themselves (no store):
// determinism, wire-format round-trip and rejection, and the structural
// invariants the replayer's multi-threaded partition relies on.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "../support/env_seed.h"
#include "nf2/value.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace starfish::workload {
namespace {

TEST(ScenarioTraceTest, SameSeedIsByteIdentical) {
  ScenarioParams params;
  params.seed = test::TestSeed(42);
  SCOPED_TRACE("STARFISH_SEED=" + std::to_string(params.seed));
  auto a = GenerateTrace(params);
  auto b = GenerateTrace(params);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a.value() == b.value());
  EXPECT_EQ(EncodeTrace(a.value()), EncodeTrace(b.value()));
}

TEST(ScenarioTraceTest, DifferentSeedsDiffer) {
  ScenarioParams params;
  params.seed = 1;
  auto a = GenerateTrace(params);
  params.seed = 2;
  auto b = GenerateTrace(params);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a.value() == b.value());
}

TEST(ScenarioTraceTest, RoundTripThroughWireFormat) {
  ScenarioParams params;
  params.seed = test::TestSeed(7);
  SCOPED_TRACE("STARFISH_SEED=" + std::to_string(params.seed));
  auto trace = GenerateTrace(params);
  ASSERT_TRUE(trace.ok());
  const std::string bytes = EncodeTrace(trace.value());
  auto back = DecodeTrace(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == trace.value());
}

TEST(ScenarioTraceTest, DecodeRejectsCorruption) {
  ScenarioParams params;
  params.n_ops = 50;
  auto trace = GenerateTrace(params);
  ASSERT_TRUE(trace.ok());
  const std::string bytes = EncodeTrace(trace.value());

  // Truncation.
  EXPECT_TRUE(DecodeTrace(std::string_view(bytes.data(), 10))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeTrace(std::string_view(bytes.data(), bytes.size() - 1))
                  .status()
                  .IsCorruption());
  // Bad magic.
  std::string magic = bytes;
  magic[0] ^= 0xFF;
  EXPECT_TRUE(DecodeTrace(magic).status().IsCorruption());
  // A flipped byte in the middle trips the CRC.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  EXPECT_TRUE(DecodeTrace(flipped).status().IsCorruption());
}

TEST(ScenarioTraceTest, DecodeRejectsFutureVersion) {
  ScenarioParams params;
  params.n_ops = 20;
  auto trace = GenerateTrace(params);
  ASSERT_TRUE(trace.ok());
  // Decode validates the version before the checksum, so a future-version
  // file is NotSupported (not Corruption) even though the CRC no longer
  // matches this build's expectation of the bytes.
  std::string bytes = EncodeTrace(trace.value());
  bytes[8] = static_cast<char>(kTraceVersion + 1);
  EXPECT_TRUE(DecodeTrace(bytes).status().IsNotSupported());
}

TEST(ScenarioTraceTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "starfish_trace_rt.sftrace")
          .string();
  std::filesystem::remove(path);
  ScenarioParams params;
  params.seed = 11;
  auto trace = GenerateTrace(params);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(WriteTraceFile(trace.value(), path).ok());
  auto back = ReadTraceFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == trace.value());
  std::filesystem::remove(path);
  EXPECT_TRUE(ReadTraceFile(path).status().IsNotFound());
}

TEST(ScenarioTraceTest, FamiliesAreDeterministicAndDistinct) {
  const uint64_t seed = test::TestSeed(20260809);
  SCOPED_TRACE("STARFISH_SEED=" + std::to_string(seed));
  const auto families = ScenarioFamilies(seed);
  ASSERT_GE(families.size(), 7u);
  std::set<std::string> names;
  std::set<std::string> encodings;
  for (const auto& scenario : families) {
    EXPECT_TRUE(names.insert(scenario.name).second)
        << "duplicate family " << scenario.name;
    auto once = GenerateTrace(scenario.params);
    auto twice = GenerateTrace(scenario.params);
    ASSERT_TRUE(once.ok()) << scenario.name;
    ASSERT_TRUE(twice.ok()) << scenario.name;
    EXPECT_EQ(EncodeTrace(once.value()), EncodeTrace(twice.value()))
        << scenario.name;
    EXPECT_TRUE(encodings.insert(EncodeTrace(once.value())).second)
        << "family " << scenario.name << " generated an identical trace";
  }
}

// The structural invariants the multi-threaded replayer's partition rests
// on: stream = ref % kTraceStreams for every ref-targeted op, transaction
// groups contiguous and single-stream, writes valid by construction, and
// guaranteed-miss probes really never written.
TEST(ScenarioTraceTest, GeneratedTracesUpholdPartitionInvariants) {
  const uint64_t base = test::TestSeed(500);
  const int seeds = test::SeedPinned() ? 1 : 10;
  for (int s = 0; s < seeds; ++s) {
    for (const auto& scenario : ScenarioFamilies(base + s)) {
      SCOPED_TRACE(scenario.name + " STARFISH_SEED=" +
                   std::to_string(scenario.params.seed));
      auto trace_or = GenerateTrace(scenario.params);
      ASSERT_TRUE(trace_or.ok());
      const Trace& trace = trace_or.value();
      ASSERT_GT(trace.ops.size(), 0u);

      std::set<ObjectRef> live;
      std::set<ObjectRef> live_snapshot;
      std::set<ObjectRef> ever_put;
      bool in_txn = false;
      bool txn_rolls_back = false;
      uint8_t txn_stream = 0;
      for (size_t i = 0; i < trace.ops.size(); ++i) {
        const TraceOp& op = trace.ops[i];
        switch (op.kind) {
          case TraceOpKind::kBegin:
            ASSERT_FALSE(in_txn) << "nested Begin at op " << i;
            in_txn = true;
            txn_stream = op.stream;
            live_snapshot = live;
            break;
          case TraceOpKind::kCommit:
          case TraceOpKind::kRollback:
            ASSERT_TRUE(in_txn) << "unmatched txn close at op " << i;
            ASSERT_EQ(op.stream, txn_stream);
            if (op.kind == TraceOpKind::kRollback) {
              live = live_snapshot;
              txn_rolls_back = true;
            }
            in_txn = false;
            break;
          case TraceOpKind::kPut:
            ASSERT_EQ(op.stream, op.ref % kTraceStreams);
            ASSERT_FALSE(in_txn) << "Put inside a txn at op " << i;
            ASSERT_EQ(live.count(op.ref), 0u)
                << "Put on live ref " << op.ref << " at op " << i;
            ASSERT_EQ(ever_put.count(op.ref), 0u)
                << "ref " << op.ref << " reused at op " << i;
            live.insert(op.ref);
            ever_put.insert(op.ref);
            break;
          case TraceOpKind::kReplace:
          case TraceOpKind::kUpdateRoot:
          case TraceOpKind::kRemove:
            ASSERT_EQ(op.stream, op.ref % kTraceStreams);
            if (in_txn) ASSERT_EQ(op.stream, txn_stream);
            ASSERT_EQ(live.count(op.ref), 1u)
                << ToString(op.kind) << " on dead ref " << op.ref << " at op "
                << i;
            if (op.kind == TraceOpKind::kRemove) live.erase(op.ref);
            break;
          case TraceOpKind::kScan:
            break;
          default:  // reads
            ASSERT_EQ(op.stream, op.ref % kTraceStreams);
            ASSERT_LT(op.ref, trace.header.ref_universe);
            break;
        }
        // Every write op carries a materializable recipe.
        if (op.kind == TraceOpKind::kPut ||
            op.kind == TraceOpKind::kReplace) {
          ASSERT_GE(op.fanout, 1u);
          ASSERT_LE(op.fanout, scenario.params.fanout_max);
        }
      }
      ASSERT_FALSE(in_txn) << "trace ends inside a transaction";
      // Guaranteed-miss range stayed untouched.
      for (ObjectRef ref : ever_put) {
        ASSERT_LT(ref, static_cast<ObjectRef>(scenario.params.n_objects) +
                           scenario.params.max_growth);
      }
      if (scenario.name == "txn_mix") {
        EXPECT_TRUE(txn_rolls_back)
            << "txn_mix generated no rollback — parameter drift?";
      }
    }
  }
}

TEST(ScenarioTraceTest, GeneratorRejectsDegenerateParams) {
  ScenarioParams params;
  params.n_objects = 2;  // < kTraceStreams
  EXPECT_TRUE(GenerateTrace(params).status().IsInvalidArgument());
  params = ScenarioParams{};
  params.txn_ops_max = 0;
  EXPECT_TRUE(GenerateTrace(params).status().IsInvalidArgument());
  params = ScenarioParams{};
  params.fanout_max = 0;
  EXPECT_TRUE(GenerateTrace(params).status().IsInvalidArgument());
}

TEST(ScenarioTraceTest, WorkloadObjectsAreSchemaValidAndKeyed) {
  const auto schema = MakeWorkloadSchema();
  for (ObjectRef ref : {ObjectRef{0}, ObjectRef{7}, ObjectRef{100}}) {
    const Tuple object = MakeWorkloadObject(*schema, ref, 99, 4, 128, 24);
    EXPECT_TRUE(ValidateTuple(*schema, object).ok());
    EXPECT_EQ(object.values[0].as_int32(),
              static_cast<int32_t>(WorkloadKeyOf(ref)));
    const Tuple root = MakeWorkloadRootRecord(*schema, ref, 99, 24);
    EXPECT_TRUE(ValidateTuple(*schema, root).ok());
    EXPECT_EQ(root.values[0].as_int32(),
              static_cast<int32_t>(WorkloadKeyOf(ref)));
  }
  // The recipe is the identity: same seed, same bytes.
  EXPECT_EQ(MakeWorkloadObject(*schema, 3, 1234, 5, 64, 16),
            MakeWorkloadObject(*schema, 3, 1234, 5, 64, 16));
  EXPECT_NE(MakeWorkloadObject(*schema, 3, 1234, 5, 64, 16),
            MakeWorkloadObject(*schema, 3, 1235, 5, 64, 16));
}

/// FNV-1a 64 of the wire bytes: a stable fingerprint of a whole trace.
uint64_t TraceHash(const Trace& trace) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : EncodeTrace(trace)) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Golden fingerprints of the generator's output. The repository benchmark's
// count metrics (fixes_per_op, space_amp) are functions of these traces, so
// any generator change must keep every byte: the three perfbench workloads
// (perfbench/workloads.json generator params, seeds 1-3) and the seven
// scenario families at two trace lengths.
TEST(ScenarioTraceTest, GeneratorOutputMatchesGoldenHashes) {
  struct Workload {
    const char* name;
    uint32_t n_objects, n_ops;
    double zipf_theta, write_fraction;
    uint32_t burst_len;
    double txn_fraction;
    uint64_t golden[3];  // seeds 1, 2, 3
  };
  const Workload workloads[] = {
      {"hot_read", 2000, 250000, 1.0, 0.08, 0, 0.2,
       {0x6514e23520f4b064ull, 0xbf0cb3f6fdb31244ull, 0x63c29aa205539d84ull}},
      {"cold_direct", 1000, 150000, 0.6, 0.08, 0, 0.2,
       {0xf28f179a0ba28680ull, 0xd66436e1cbeeef6cull, 0x70ee435e376bfd36ull}},
      {"durable_write", 2000, 500000, 0.8, 0.5, 1000, 0.25,
       {0xc9f5911e6dedddb1ull, 0x1b17db47bd4900ecull, 0xa8c44ce84aa88242ull}},
  };
  for (const Workload& w : workloads) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioParams params;
      params.seed = seed;
      params.n_objects = w.n_objects;
      params.n_ops = w.n_ops;
      params.max_growth = 1000000;
      params.zipf_theta = w.zipf_theta;
      params.drift_every = 0;
      params.write_fraction = params.write_fraction_end = w.write_fraction;
      params.burst_len = w.burst_len;
      params.txn_fraction = w.txn_fraction;
      auto trace = GenerateTrace(params);
      ASSERT_TRUE(trace.ok()) << trace.status().ToString();
      EXPECT_EQ(TraceHash(trace.value()), w.golden[seed - 1])
          << std::hex << w.name << " seed " << seed << ": 0x"
          << TraceHash(trace.value());
    }
  }

  const uint64_t golden_families[2][7] = {
      // read_mostly, write_heavy, hot_drift, bursty, txn_mix, scan_heavy,
      // cooling
      {0x55eb7f513663d2c3ull, 0x9673a81fedca5169ull, 0xdff1b30614c03b23ull,
       0x87da302fc6769ef2ull, 0xcff792d8e9de5084ull, 0xd7bc49bfdc3f28adull,
       0x89ba92521fab7750ull},  // 400 ops
      {0xaecc8752d7fbe55bull, 0x22f281eadfb6e58cull, 0xd6877e33263bc120ull,
       0x890f646d5ec103fdull, 0x2ae1f26acb290067ull, 0x48984adb0ef83b11ull,
       0xd6171c83764ac1d4ull},  // 5000 ops
  };
  const uint32_t lengths[2] = {400, 5000};
  for (size_t l = 0; l < 2; ++l) {
    const auto families = ScenarioFamilies(1);
    ASSERT_EQ(families.size(), 7u);
    for (size_t f = 0; f < families.size(); ++f) {
      ScenarioParams params = families[f].params;
      params.n_ops = lengths[l];
      auto trace = GenerateTrace(params);
      ASSERT_TRUE(trace.ok()) << trace.status().ToString();
      EXPECT_EQ(TraceHash(trace.value()), golden_families[l][f])
          << std::hex << families[f].name << " " << std::dec << lengths[l]
          << " ops: 0x" << std::hex << TraceHash(trace.value());
    }
  }
}

}  // namespace
}  // namespace starfish::workload
