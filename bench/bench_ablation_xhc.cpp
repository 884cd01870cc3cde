// Ablations over XHC's design choices (DESIGN.md §4, "extra"):
//   * hierarchy sensitivity: flat / numa / socket / numa+socket /
//     l3+numa+socket (paper §III-A: which levels pay off where), every
//     column on its flag tree (the LLC switch off);
//   * one-chunk ops: the flag tree, the flat tree and the cache tree for
//     bcast 4 B-16 KiB, allreduce 4 B-8 KiB and barrier on every paper
//     system, mean and root completion (why Tuning::llc_aware ends one-chunk
//     ops on the cache tree; DESIGN.md § Cache tree);
//   * pipeline chunk size (paper §III-B and §V-D2's note that 128K–1M
//     allreduce is sensitive to chunk configuration);
//   * CICO threshold (paper §III-D: where the copy-in-copy-out path stops
//     paying off);
//   * registration cache on/off for the full XHC data path (§III-C);
//   * allreduce size class: the latency path vs reduce-scatter + allgather
//     vs the shipped default, 2 KiB-128 KiB on every paper system (where
//     the rs_ag_threshold crossover lies; EXPERIMENTS.md);
//   * large-message paths: the LLC-deep shard nest on/off x bcast striping
//     on/off, allreduce and bcast 16 KiB-4 MiB on every paper system, mean
//     and slowest rank (why llc_aware is on and xhc stripes nothing by
//     default; DESIGN.md § Large-message paths).
#include <array>
#include <optional>

#include "bench/bench_common.h"
#include "core/xhc_component.h"

static int run(int argc, char** argv) {
  using namespace xhc;
  const auto args = bench::BenchArgs::parse(argc, argv);

  // --- sensitivity ablation (bcast, Epyc-2P + ARM-N1) ----------------------
  {
    const std::vector<std::size_t> sizes =
        args.quick ? std::vector<std::size_t>{4096}
                   : std::vector<std::size_t>{4, 4096, 262144, 1048576};
    for (const char* system : {"epyc2p", "armn1"}) {
      util::Table table({"Size", "flat", "numa", "socket", "numa+socket",
                         "l3+numa+socket"});
      std::vector<std::vector<std::string>> rows(sizes.size());
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        rows[i].push_back(util::Table::fmt_bytes(sizes[i]));
      }
      for (const char* sens :
           {"flat", "numa", "socket", "numa+socket", "l3+numa+socket"}) {
        auto machine = bench::make_system(system);
        coll::Tuning tuning;
        args.apply_tuning(tuning);
        tuning.sensitivity = sens;
        // Otherwise every column with a multi-level tree sends its one-chunk
        // sizes over the same cache tree.
        tuning.llc_aware = false;
        core::XhcComponent comp(*machine, tuning, "xhc-ablate");
        osu::Config cfg;
        cfg.warmup = 1;
        cfg.iters = args.quick ? 1 : 2;
        const auto res = osu::bcast_sweep(*machine, comp, sizes, cfg);
        for (std::size_t i = 0; i < res.size(); ++i) {
          rows[i].push_back(bench::us(res[i].avg_us));
        }
      }
      for (auto& row : rows) table.add_row(std::move(row));
      bench::emit(args, table,
                  std::string("Ablation: hierarchy sensitivity, bcast (us), ") +
                      system);
    }
  }

  // --- one-chunk ops: flag tree vs flat vs cache tree (every system) ------
  {
    const std::vector<std::size_t> bcast_sizes =
        args.quick ? std::vector<std::size_t>{4, 4096, 16384}
                   : std::vector<std::size_t>{4, 64, 512, 1024, 4096, 16384};
    // Allreduces above 8 KiB take reduce-scatter + allgather.
    const std::vector<std::size_t> allreduce_sizes =
        args.quick ? std::vector<std::size_t>{4, 4096}
                   : std::vector<std::size_t>{4, 64, 512, 1024, 4096, 8192};
    // The cache tree is xhc's default; the flag tree is xhc with the LLC
    // switch off, the flat tree xhc-flat. The root returns last in a bcast
    // and an allreduce (it waits for every ack), so there the slowest rank's
    // time is its completion; in a barrier it is the last rank released.
    constexpr std::array<const char*, 3> kTrees{"flag tree", "flat",
                                                "cache tree"};
    const auto systems = args.systems();
    // Per point: the bcast sizes, the allreduce sizes, then the barrier.
    std::vector<std::vector<osu::SizeResult>> res(systems.size() *
                                                  kTrees.size());
    osu::run_points(res.size(), args.jobs, [&](std::size_t i) {
      const std::size_t ti = i % kTrees.size();
      auto machine = bench::make_system(systems[i / kTrees.size()]);
      coll::Tuning tuning;
      args.apply_tuning(tuning);
      tuning.llc_aware = ti != 0;
      auto comp =
          coll::make_component(ti == 1 ? "xhc-flat" : "xhc", *machine, tuning);
      osu::Config cfg;
      cfg.warmup = 1;
      cfg.iters = args.quick ? 2 : 4;
      cfg.verify = args.verify;
      res[i] = osu::bcast_sweep(*machine, *comp, bcast_sizes, cfg);
      for (const osu::SizeResult& r :
           osu::allreduce_sweep(*machine, *comp, allreduce_sizes, cfg)) {
        res[i].push_back(r);
      }
      res[i].push_back(osu::barrier_result(*machine, *comp, cfg));
    });
    std::vector<std::string> labels;
    for (const std::size_t b : bcast_sizes) {
      labels.push_back("bcast " + util::Table::fmt_bytes(b));
    }
    for (const std::size_t b : allreduce_sizes) {
      labels.push_back("allreduce " + util::Table::fmt_bytes(b));
    }
    labels.push_back("barrier");
    for (std::size_t si = 0; si < systems.size(); ++si) {
      std::vector<std::string> header{"Op"};
      for (const char* tree : kTrees) {
        header.push_back(std::string(tree) + " avg");
        header.push_back(std::string(tree) + " root");
      }
      util::Table table(std::move(header));
      for (std::size_t k = 0; k < labels.size(); ++k) {
        std::vector<std::string> row{labels[k]};
        for (std::size_t ti = 0; ti < kTrees.size(); ++ti) {
          const osu::SizeResult& r = res[si * kTrees.size() + ti][k];
          row.push_back(bench::us(r.avg_us));
          row.push_back(bench::us(r.max_us));
        }
        table.add_row(std::move(row));
      }
      bench::emit(args, table,
                  "Ablation: one-chunk ops (us; flag tree | flat | cache "
                  "tree), " +
                      std::string(systems[si]));
    }
  }

  // --- chunk size ablation (allreduce 1 MB, Epyc-2P) -----------------------
  {
    util::Table table({"Chunk", "bcast 1M (us)", "allreduce 1M (us)"});
    const std::vector<std::size_t> chunks =
        args.quick ? std::vector<std::size_t>{16384}
                   : std::vector<std::size_t>{4096, 16384, 65536, 262144};
    for (const std::size_t chunk : chunks) {
      double lat[2]{};
      for (int which = 0; which < 2; ++which) {
        auto machine = bench::make_system("epyc2p");
        coll::Tuning tuning;
        args.apply_tuning(tuning);
        tuning.chunk_bytes = {chunk};
        core::XhcComponent comp(*machine, tuning, "xhc-chunk");
        osu::Config cfg;
        cfg.warmup = 1;
        cfg.iters = args.quick ? 1 : 2;
        lat[which] =
            which == 0
                ? osu::bcast_sweep(*machine, comp, {1u << 20}, cfg)
                      .front()
                      .avg_us
                : osu::allreduce_sweep(*machine, comp, {1u << 20}, cfg)
                      .front()
                      .avg_us;
      }
      table.add_row({util::Table::fmt_bytes(chunk), bench::us(lat[0]),
                     bench::us(lat[1])});
    }
    bench::emit(args, table,
                "Ablation: pipeline chunk size (Epyc-2P, 1 MB)");
  }

  // --- CICO threshold ablation (Epyc-1P) -----------------------------------
  {
    util::Table table({"Size", "cico=0 (always 1-copy)", "cico=1K (default)",
                       "cico=16K"});
    const std::vector<std::size_t> sizes{64, 512, 2048, 8192};
    std::vector<std::vector<std::string>> rows(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      rows[i].push_back(util::Table::fmt_bytes(sizes[i]));
    }
    for (const std::size_t threshold : {std::size_t{0}, std::size_t{1024},
                                        std::size_t{16384}}) {
      auto machine = bench::make_system("epyc1p");
      coll::Tuning tuning;
      args.apply_tuning(tuning);
      tuning.cico_threshold = threshold;
      core::XhcComponent comp(*machine, tuning, "xhc-cico");
      osu::Config cfg;
      cfg.warmup = 1;
      cfg.iters = args.quick ? 2 : 4;
      const auto res = osu::bcast_sweep(*machine, comp, sizes, cfg);
      for (std::size_t i = 0; i < res.size(); ++i) {
        rows[i].push_back(bench::us(res[i].avg_us));
      }
    }
    for (auto& row : rows) table.add_row(std::move(row));
    bench::emit(args, table,
                "Ablation: CICO threshold, bcast (us), Epyc-1P");
  }

  // --- registration cache on/off for XHC (Epyc-2P) -------------------------
  {
    util::Table table({"Size", "regcache on", "regcache off", "penalty"});
    for (const std::size_t bytes :
         {std::size_t{16384}, std::size_t{262144}, std::size_t{1} << 20}) {
      double lat[2]{};
      int i = 0;
      for (const bool cache : {true, false}) {
        auto machine = bench::make_system("epyc2p");
        coll::Tuning tuning;
        args.apply_tuning(tuning);
        tuning.reg_cache = cache;
        core::XhcComponent comp(*machine, tuning, "xhc-rc");
        osu::Config cfg;
        cfg.warmup = 1;
        cfg.iters = args.quick ? 1 : 2;
        lat[i++] =
            osu::bcast_sweep(*machine, comp, {bytes}, cfg).front().avg_us;
      }
      table.add_row({util::Table::fmt_bytes(bytes), bench::us(lat[0]),
                     bench::us(lat[1]),
                     util::Table::fmt_double(lat[1] / lat[0], 2) + "x"});
    }
    bench::emit(args, table,
                "Ablation: XHC registration cache on/off, bcast (Epyc-2P)");
  }

  // --- allreduce size class (every paper system) ---------------------------
  {
    const std::vector<std::size_t> sizes =
        args.quick ? std::vector<std::size_t>{4096, 8192, 16384, 65536}
                   : std::vector<std::size_t>{2048,  3072,  4096,  6144,
                                              8192,  10240, 12288, 14336,
                                              16384, 32768, 65536, 131072};
    for (const auto system : args.systems()) {
      // rs_ag_threshold 0 pins the latency path, 1 sends every size through
      // RS+AG, nullopt keeps the default (or --tune's value).
      const auto sweep = [&](std::optional<std::size_t> rs_ag_threshold) {
        auto machine = bench::make_system(system);
        coll::Tuning tuning;
        args.apply_tuning(tuning);
        if (rs_ag_threshold) tuning.rs_ag_threshold = *rs_ag_threshold;
        core::XhcComponent comp(*machine, tuning, "xhc-sizeclass");
        osu::Config cfg;
        cfg.warmup = 1;
        cfg.iters = 2;
        return osu::allreduce_sweep(*machine, comp, sizes, cfg);
      };
      const auto latency = sweep(0);
      const auto rs_ag = sweep(1);
      const auto dflt = sweep(std::nullopt);
      util::Table table(
          {"Size", "latency path", "RS+AG", "RS+AG/latency", "default"});
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        table.add_row({util::Table::fmt_bytes(sizes[i]),
                       bench::us(latency[i].avg_us), bench::us(rs_ag[i].avg_us),
                       util::Table::fmt_double(
                           rs_ag[i].avg_us / latency[i].avg_us, 3),
                       bench::us(dflt[i].avg_us)});
      }
      bench::emit(args, table,
                  std::string("Ablation: allreduce size class (us), ") +
                      std::string(system));
    }
  }

  // --- large-message paths (every paper system) ---------------------------
  {
    const std::vector<std::size_t> sizes =
        args.quick ? std::vector<std::size_t>{16384, 1 << 20}
                   : std::vector<std::size_t>{16384, 65536, 262144, 1 << 20,
                                              4 << 20};
    struct Variant {
      const char* label;
      bool llc_aware;
      std::size_t stripe_threshold;
    };
    // The default first; ucc's and xhc-flat's 128 KiB stripe threshold.
    constexpr std::array<Variant, 4> kVariants{{{"llc/pipe", true, 0},
                                                {"llc/stripe", true, 128 << 10},
                                                {"tree/pipe", false, 0},
                                                {"tree/stripe", false,
                                                 128 << 10}}};
    const auto systems = args.systems();
    // One point per (system, variant, op), each on a private machine, so
    // --jobs runs them in any order and the tables stay byte-identical.
    const std::size_t per_system = 2 * kVariants.size();
    std::vector<std::vector<osu::SizeResult>> res(systems.size() * per_system);
    osu::run_points(res.size(), args.jobs, [&](std::size_t i) {
      const Variant& v = kVariants[i % per_system / 2];
      auto machine = bench::make_system(systems[i / per_system]);
      coll::Tuning tuning;
      args.apply_tuning(tuning);
      tuning.llc_aware = v.llc_aware;
      tuning.stripe_threshold = v.stripe_threshold;
      core::XhcComponent comp(*machine, tuning, "xhc-large");
      osu::Config cfg;
      cfg.warmup = 1;
      cfg.iters = args.quick ? 1 : 2;
      cfg.verify = args.verify;
      res[i] = i % 2 == 0 ? osu::allreduce_sweep(*machine, comp, sizes, cfg)
                          : osu::bcast_sweep(*machine, comp, sizes, cfg);
    });
    for (std::size_t si = 0; si < systems.size(); ++si) {
      std::vector<std::string> header{"Op", "Size"};
      for (const Variant& v : kVariants) {
        header.push_back(std::string(v.label) + " avg");
        header.push_back(std::string(v.label) + " max");
      }
      util::Table table(std::move(header));
      for (const int op : {0, 1}) {
        for (std::size_t k = 0; k < sizes.size(); ++k) {
          std::vector<std::string> row{op == 0 ? "allreduce" : "bcast",
                                       util::Table::fmt_bytes(sizes[k])};
          for (std::size_t vi = 0; vi < kVariants.size(); ++vi) {
            const osu::SizeResult& r =
                res[si * per_system + 2 * vi + static_cast<std::size_t>(op)][k];
            row.push_back(bench::us(r.avg_us));
            row.push_back(bench::us(r.max_us));
          }
          table.add_row(std::move(row));
        }
      }
      bench::emit(args, table,
                  "Ablation: large-message paths (us; shard nest llc|tree x "
                  "bcast pipe|stripe), " +
                      std::string(systems[si]));
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
