// Persisted perf store: format round-trips, rejection taxonomy, engine
// preload/save wiring, declared-rate seeding, and the determinism
// guarantee (a loaded store changes estimates, never ordering).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "starvm/engine.hpp"
#include "starvm/perf_model.hpp"
#include "starvm/perf_store.hpp"
#include "starvm/trace_export.hpp"

namespace starvm {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

/// Files save() left next to `path` under a temp name ("<name>.tmp...").
int temp_files_beside(const std::string& path) {
  const std::filesystem::path store(path);
  const std::string prefix = store.filename().string() + ".tmp";
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(store.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

perf_store::Store sample_store(std::uint64_t hash) {
  perf_store::Store store;
  store.descriptor_hash = hash;
  store.entries = {
      {"dgemm_tiled", 1, 2.5e-3, 7, 41.5},
      {"dgemm_tiled", 0, 1.5e-3, 5, 12.25},
      {"vecadd_seq", 0, 3.0e-6, 12, 0.0},
  };
  return store;
}

TEST(PerfStore, DescriptorHashIsStableAndSensitive) {
  const EngineConfig a = EngineConfig::cpus(2, 5.0);
  const EngineConfig b = EngineConfig::cpus(2, 5.0);
  EXPECT_EQ(perf_store::descriptor_hash(a.devices),
            perf_store::descriptor_hash(b.devices));
  // Any cost-model-relevant edit must produce a cold start.
  const EngineConfig faster = EngineConfig::cpus(2, 6.0);
  EXPECT_NE(perf_store::descriptor_hash(a.devices),
            perf_store::descriptor_hash(faster.devices));
  const EngineConfig wider = EngineConfig::cpus(3, 5.0);
  EXPECT_NE(perf_store::descriptor_hash(a.devices),
            perf_store::descriptor_hash(wider.devices));
}

TEST(PerfStore, SaveLoadRoundTripIsByteStable) {
  const std::string path = temp_path("roundtrip.perfstore");
  const perf_store::Store store = sample_store(0x1234abcd5678ef01ULL);
  const std::string rendered = perf_store::render_text(store);
  ASSERT_TRUE(perf_store::save(store, path));

  const perf_store::LoadResult loaded = perf_store::load(path);
  ASSERT_EQ(loaded.status, perf_store::LoadStatus::kLoaded) << loaded.detail;
  EXPECT_EQ(loaded.store.descriptor_hash, store.descriptor_hash);
  ASSERT_EQ(loaded.store.entries.size(), store.entries.size());

  // Render(load(save(s))) == render(s): the text form is canonical.
  EXPECT_EQ(perf_store::render_text(loaded.store), rendered);

  // And the canonical order is (codelet, device), independent of input
  // order.
  EXPECT_EQ(loaded.store.entries[0].codelet, "dgemm_tiled");
  EXPECT_EQ(loaded.store.entries[0].device, 0);
  EXPECT_EQ(loaded.store.entries[1].device, 1);
  EXPECT_EQ(loaded.store.entries[2].codelet, "vecadd_seq");
  EXPECT_DOUBLE_EQ(loaded.store.entries[1].ema_seconds, 2.5e-3);
  EXPECT_EQ(loaded.store.entries[1].count, 7u);
  EXPECT_DOUBLE_EQ(loaded.store.entries[1].ema_gflops, 41.5);

  EXPECT_EQ(temp_files_beside(path), 0);
  std::remove(path.c_str());
}

TEST(PerfStore, MissingFileIsACleanColdStart) {
  const perf_store::LoadResult loaded =
      perf_store::load(temp_path("does_not_exist.perfstore"));
  EXPECT_EQ(loaded.status, perf_store::LoadStatus::kMissing);
}

TEST(PerfStore, WrongVersionIsRejectedAsBadVersion) {
  const std::string path = temp_path("badversion.perfstore");
  write_file(path, "# starvm perf-store v2\nplatform 0000000000000001\n");
  EXPECT_EQ(perf_store::load(path).status, perf_store::LoadStatus::kBadVersion);
  std::remove(path.c_str());
}

TEST(PerfStore, CorruptFilesAreRejected) {
  const std::string path = temp_path("corrupt.perfstore");
  const char* cases[] = {
      "",                                  // empty
      "not a perf store\n",                // foreign content
      "# starvm perf-store v1\n",          // truncated: no platform line
      "# starvm perf-store v1\nplatform xyz\n",  // malformed hash
      "# starvm perf-store v1\nplatform 0000000000000001\nrate a 0 0.001\n",
      "# starvm perf-store v1\nplatform 0000000000000001\n"
      "rate a 99 0.001 5 1.0\n",           // device out of range
      "# starvm perf-store v1\nplatform 0000000000000001\n"
      "rate a 0 0.001 0 1.0\n",            // count == 0 is not a sample
      "# starvm perf-store v1\nplatform 0000000000000001\n"
      "bogus a 0 0.001 5 1.0\n",           // unknown record kind
  };
  for (const char* text : cases) {
    write_file(path, text);
    EXPECT_EQ(perf_store::load(path).status, perf_store::LoadStatus::kCorrupt)
        << "accepted: " << text;
  }
  std::remove(path.c_str());
}

TEST(PerfStore, FromModelSnapshotAndPreloadAgree) {
  PerfModel model;
  PerfModel::Row& row = model.row("k1");
  PerfModel::observe_in(row, 0, 0.010, 2e7);
  PerfModel::observe_in(row, 0, 0.020, 2e7);
  PerfModel::observe_in(row, 1, 0.005, 0.0);  // no flops -> no rate cell

  const perf_store::Store store = perf_store::from_model(model, 42);
  EXPECT_EQ(store.descriptor_hash, 42u);
  ASSERT_EQ(store.entries.size(), 2u);

  PerfModel reloaded;
  perf_store::preload(store, reloaded);
  for (const perf_store::Entry& e : store.entries) {
    const auto estimate = reloaded.history_estimate(e.codelet, e.device);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_DOUBLE_EQ(*estimate, e.ema_seconds);
  }
}

TEST(PerfStore, EnvVarDisabledForms) {
  ::setenv("PDL_PERF_STORE", "", 1);
  EXPECT_EQ(perf_store::resolve_path(""), "");
  ::setenv("PDL_PERF_STORE", "0", 1);
  EXPECT_EQ(perf_store::resolve_path(""), "");
  ::setenv("PDL_PERF_STORE", "/tmp/x.perfstore", 1);
  EXPECT_EQ(perf_store::resolve_path(""), "/tmp/x.perfstore");
  // A configured path wins over the environment, and "0" disables there
  // too.
  EXPECT_EQ(perf_store::resolve_path("mine.perfstore"), "mine.perfstore");
  EXPECT_EQ(perf_store::resolve_path("0"), "");
  ::unsetenv("PDL_PERF_STORE");
  EXPECT_EQ(perf_store::resolve_path(""), "");
}

TEST(PerfStore, LoadForBindsHashAndDeviceIds) {
  const std::vector<DeviceSpec> devices = EngineConfig::cpus(2).devices;
  const std::string path = temp_path("bind.perfstore");
  perf_store::Store store;
  store.descriptor_hash = perf_store::descriptor_hash(devices);
  store.entries = {{"k", 1, 1e-3, 2, 1.0}};
  ASSERT_TRUE(perf_store::save(store, path));
  EXPECT_EQ(perf_store::load_for(path, devices).status,
            perf_store::LoadStatus::kLoaded);

  store.entries.push_back({"k", 2, 1e-3, 2, 1.0});  // no device 2
  ASSERT_TRUE(perf_store::save(store, path));
  const perf_store::LoadResult out_of_range = perf_store::load_for(path, devices);
  EXPECT_EQ(out_of_range.status, perf_store::LoadStatus::kMismatch);
  EXPECT_NE(out_of_range.detail.find("names device 2"), std::string::npos);

  store.descriptor_hash ^= 1;
  ASSERT_TRUE(perf_store::save(store, path));
  const perf_store::LoadResult stale = perf_store::load_for(path, devices);
  EXPECT_EQ(stale.status, perf_store::LoadStatus::kMismatch);
  EXPECT_EQ(stale.detail, "descriptor hash mismatch");
  std::remove(path.c_str());
}

TEST(PerfStore, ConcurrentSavesNeverTearTheStore) {
  // Two writers race to replace one store while a reader keeps loading
  // it: every load must see one writer's whole store, never a torn or
  // interleaved file.
  const std::string path = temp_path("concurrent.perfstore");
  std::remove(path.c_str());
  perf_store::Store stores[2];
  for (int w = 0; w < 2; ++w) {
    stores[w].descriptor_hash = 100 + static_cast<std::uint64_t>(w);
    for (int i = 0; i < 1000; ++i) {
      stores[w].entries.push_back({"writer" + std::to_string(w) + "_codelet_" +
                                       std::to_string(i),
                                   i % 4, 1e-3 * (w + 1), 3, 1.5});
    }
  }
  const std::string texts[2] = {perf_store::render_text(stores[0]),
                                perf_store::render_text(stores[1])};
  constexpr int kSaves = 400;
  std::atomic<int> writers_done{0};
  std::atomic<int> failed_saves{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kSaves; ++i) {
        if (!perf_store::save(stores[w], path)) failed_saves.fetch_add(1);
      }
      writers_done.fetch_add(1);
    });
  }
  int loads = 0;
  int bad_loads = 0;
  while (writers_done.load() < 2 || loads == 0) {
    const perf_store::LoadResult loaded = perf_store::load(path);
    if (loaded.status == perf_store::LoadStatus::kMissing) continue;
    ++loads;
    if (loaded.status != perf_store::LoadStatus::kLoaded) {
      ++bad_loads;
      continue;
    }
    const std::string text = perf_store::render_text(loaded.store);
    if (text != texts[0] && text != texts[1]) ++bad_loads;
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failed_saves.load(), 0);
  EXPECT_EQ(bad_loads, 0) << "of " << loads << " loads";
  const perf_store::LoadResult last = perf_store::load(path);
  ASSERT_EQ(last.status, perf_store::LoadStatus::kLoaded);
  const std::string text = perf_store::render_text(last.store);
  EXPECT_TRUE(text == texts[0] || text == texts[1]);
  EXPECT_EQ(temp_files_beside(path), 0);
  std::remove(path.c_str());
}

// --- Engine wiring -----------------------------------------------------------

Codelet flops_codelet(std::string name, double flops) {
  Codelet c;
  c.name = std::move(name);
  c.impls.push_back(Implementation{DeviceKind::kCpu, [](const ExecContext&) {}});
  c.flops = [flops](const std::vector<BufferView>&) { return flops; };
  return c;
}

TEST(PerfStoreEngine, PreloadWarmsEstimatesFromTheFirstTask) {
  const std::string path = temp_path("engine_warm.perfstore");
  EngineConfig config = EngineConfig::cpus(2);
  perf_store::Store store;
  store.descriptor_hash = perf_store::descriptor_hash(config.devices);
  store.entries = {{"warm", 0, 0.125, 9, 8.0}};
  ASSERT_TRUE(perf_store::save(store, path));

  config.perf_store_path = path;
  Engine engine(std::move(config));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.perf_store_entries, 1u);
  EXPECT_EQ(stats.perf_store_rejected, 0u);
  const auto estimate = engine.perf_model().history_estimate("warm", 0);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_DOUBLE_EQ(*estimate, 0.125);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, HashMismatchIsRejectedAndCounted) {
  const std::string path = temp_path("engine_mismatch.perfstore");
  EngineConfig config = EngineConfig::cpus(2);
  perf_store::Store store;
  store.descriptor_hash =
      perf_store::descriptor_hash(config.devices) ^ 0xdeadbeefULL;
  store.entries = {{"stale", 0, 0.125, 9, 8.0}};
  ASSERT_TRUE(perf_store::save(store, path));

  config.perf_store_path = path;
  Engine engine(std::move(config));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.perf_store_entries, 0u);
  EXPECT_EQ(stats.perf_store_rejected, 1u);
  EXPECT_FALSE(engine.perf_model().history_estimate("stale", 0).has_value());
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, CorruptStoreIsRejectedAndCounted) {
  const std::string path = temp_path("engine_corrupt.perfstore");
  write_file(path, "definitely not a perf store\n");
  EngineConfig config = EngineConfig::cpus(1);
  config.perf_store_path = path;
  Engine engine(std::move(config));
  EXPECT_EQ(engine.stats().perf_store_rejected, 1u);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, ConfiguredZeroLeavesNoFileBehind) {
  // "0" disables persistence in EngineConfig::perf_store_path just as it
  // does in PDL_PERF_STORE: no store named "0" may appear in the working
  // directory.
  std::string dir = temp_path("perfstore_zero_XXXXXX");
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  char cwd[4096];
  ASSERT_NE(::getcwd(cwd, sizeof cwd), nullptr);
  ASSERT_EQ(::chdir(dir.c_str()), 0);
  {
    EngineConfig config = EngineConfig::cpus(1);
    config.mode = ExecutionMode::kPureSim;
    config.perf_store_path = "0";
    Engine engine(std::move(config));
    const Codelet c = flops_codelet("zero", 1e6);
    engine.submit(TaskDesc{&c, {}});
    EXPECT_TRUE(engine.wait_all().ok());
  }
  const bool leaked = std::ifstream(dir + "/0").good();
  ASSERT_EQ(::chdir(cwd), 0);
  EXPECT_FALSE(leaked);
  std::remove((dir + "/0").c_str());
  ::rmdir(dir.c_str());
}

TEST(PerfStoreEngine, SavesCalibratedCellsOnShutdown) {
  const std::string path = temp_path("engine_save.perfstore");
  std::remove(path.c_str());
  std::uint64_t hash = 0;
  {
    EngineConfig config = EngineConfig::cpus(1);
    config.perf_store_path = path;
    hash = perf_store::descriptor_hash(config.devices);
    Engine engine(std::move(config));
    Codelet c = flops_codelet("persisted_kernel", 1e6);
    std::vector<double> data(16, 1.0);
    DataHandle* h = engine.register_vector(data.data(), data.size(), "v");
    engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}, "t"});
    ASSERT_TRUE(engine.wait_all().ok());
  }  // destructor persists the model

  const perf_store::LoadResult loaded = perf_store::load(path);
  ASSERT_EQ(loaded.status, perf_store::LoadStatus::kLoaded) << loaded.detail;
  EXPECT_EQ(loaded.store.descriptor_hash, hash);
  bool found = false;
  for (const perf_store::Entry& e : loaded.store.entries) {
    if (e.codelet == "persisted_kernel") {
      found = true;
      EXPECT_GE(e.count, 1u);
      EXPECT_GT(e.ema_seconds, 0.0);
    }
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(PerfStoreEngine, DeclaredRatesSeedEveryWiredCodelet) {
  Engine engine(EngineConfig::cpus(2));
  Codelet c = flops_codelet("seeded_kernel", 1e6);
  std::vector<double> data(16, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size(), "v");
  engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}, "t"});
  ASSERT_TRUE(engine.wait_all().ok());
  // One seed per (codelet, device): 1 codelet x 2 devices.
  EXPECT_EQ(engine.stats().perf_model_seeds, 2u);
}

// --- Seeding semantics -------------------------------------------------------

TEST(PerfModelSeed, SeededEstimateEqualsAnalyticWithSeedRate) {
  PerfModel model;
  PerfModel::Row& row = model.row("k");
  ASSERT_TRUE(PerfModel::seed_in(row, 0, 10.0));
  // Seeded with the device's own rate, the estimate is byte-identical to
  // the cold analytic fallback: warm and cold share one code path.
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, 0, 2e9, 10.0), 0.2);
  // Seeded with a *different* rate, the seed wins over the device rate.
  ASSERT_TRUE(PerfModel::seed_in(row, 1, 20.0));
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, 1, 2e9, 10.0), 0.1);
  // Re-seeding an occupied cell is refused.
  EXPECT_FALSE(PerfModel::seed_in(row, 0, 99.0));
}

TEST(PerfModelSeed, FirstObservationBlendsWithTheDeclaredPrior) {
  PerfModel model;
  PerfModel::Row& row = model.row("k");
  ASSERT_TRUE(PerfModel::seed_in(row, 0, 10.0));
  // Prior implied by the seed for a 2 GFLOP task: 0.2 s. First sample of
  // 0.1 s blends: 0.25 * 0.1 + 0.75 * 0.2 = 0.175.
  PerfModel::observe_in(row, 0, 0.1, 2e9);
  const auto estimate = model.history_estimate("k", 0);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(*estimate, 0.175, 1e-12);

  // Without a seed the first sample slams the cell (old behavior).
  PerfModel::Row& cold = model.row("k_cold");
  PerfModel::observe_in(cold, 0, 0.1, 2e9);
  EXPECT_DOUBLE_EQ(*model.history_estimate("k_cold", 0), 0.1);
}

// --- Determinism -------------------------------------------------------------

TEST(PerfStoreEngine, DeterministicReplayIsByteStableWithAStoreLoaded) {
  const std::string path = temp_path("engine_det.perfstore");
  EngineConfig proto = EngineConfig::cpus(3);
  perf_store::Store store;
  store.descriptor_hash = perf_store::descriptor_hash(proto.devices);
  // Uneven learned rates so the store actually changes HEFT's placements
  // relative to a cold start.
  store.entries = {{"det_kernel", 0, 0.010, 5, 1.0},
                   {"det_kernel", 1, 0.001, 5, 10.0},
                   {"det_kernel", 2, 0.004, 5, 2.5}};

  const auto run_once = [&]() {
    // Each run starts from the identical pristine store (the engine's own
    // shutdown save would otherwise feed run 1's observations into run 2).
    EXPECT_TRUE(perf_store::save(store, path));
    EngineConfig config = EngineConfig::cpus(3);
    config.mode = ExecutionMode::kDeterministic;
    config.perf_store_path = path;
    Engine engine(std::move(config));
    Codelet c = flops_codelet("det_kernel", 1e7);
    std::vector<std::vector<double>> data(6, std::vector<double>(8, 1.0));
    std::vector<TaskDesc> batch;
    for (std::size_t i = 0; i < data.size(); ++i) {
      DataHandle* h = engine.register_vector(data[i].data(), data[i].size(),
                                             "v" + std::to_string(i));
      batch.push_back(TaskDesc{&c, {{h, Access::kReadWrite}},
                               "t" + std::to_string(i)});
    }
    engine.submit_batch(std::move(batch));
    EXPECT_TRUE(engine.wait_all().ok());
    const EngineStats stats = engine.stats();
    return merged_chrome_trace({}, &stats);
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);  // byte-stable: same store -> same schedule
  EXPECT_FALSE(first.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace starvm
