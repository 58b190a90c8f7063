/// \file corpus.hpp
/// Committed golden checksums for tests/golden_test.cpp (see README.md
/// alongside this file).  Regenerate with SC_GOLDEN_PRINT=1 ./golden_test
/// ONLY for intentional bit-level changes, and commit the diff with them.

#pragma once

#include <cstdint>

namespace sc::golden {

struct GoldenEntry {
  const char* program;
  const char* backend;
  std::uint64_t checksum;
};

inline constexpr GoldenEntry kGoldenCorpus[] = {
    {"multiply-decor", "reference", 0xB92A1FA276C61A2FULL},
    {"multiply-decor", "engine", 0xB92A1FA276C61A2FULL},
    {"multiply-decor", "engine-chunked", 0xB92A1FA276C61A2FULL},
    {"max-resync", "reference", 0x8361C4FFACF81366ULL},
    {"max-resync", "engine", 0x8361C4FFACF81366ULL},
    {"max-resync", "engine-chunked", 0x8361C4FFACF81366ULL},
    {"satadd-desync", "reference", 0x1B9DF166219034C7ULL},
    {"satadd-desync", "engine", 0x1B9DF166219034C7ULL},
    {"satadd-desync", "engine-chunked", 0x1B9DF166219034C7ULL},
    {"bernstein-fan", "reference", 0x7FBF18D2819F2522ULL},
    {"bernstein-fan", "engine", 0x7FBF18D2819F2522ULL},
    {"bernstein-fan", "engine-chunked", 0x7FBF18D2819F2522ULL},
    {"divide-sync", "reference", 0x5351598998261CFEULL},
    {"divide-sync", "engine", 0x5351598998261CFEULL},
    {"divide-sync", "engine-chunked", 0x5351598998261CFEULL},
    {"regen-shared", "reference", 0xFA84AAC6EE1962F7ULL},
    {"regen-shared", "engine", 0xFA84AAC6EE1962F7ULL},
    {"regen-shared", "engine-chunked", 0xFA84AAC6EE1962F7ULL},
    {"faulted-mixed", "reference", 0x8B16076BFAAFD26CULL},
    {"faulted-mixed", "engine", 0x8B16076BFAAFD26CULL},
    {"faulted-mixed", "engine-chunked", 0x8B16076BFAAFD26CULL},
    {"optimized-chain", "reference", 0x66CC33AE53FD4AC0ULL},
    {"optimized-chain", "engine", 0x66CC33AE53FD4AC0ULL},
    {"optimized-chain", "engine-chunked", 0x66CC33AE53FD4AC0ULL},
    {"precision-stanh", "reference", 0x288E76DE0EA7689AULL},
    {"precision-stanh", "engine", 0x288E76DE0EA7689AULL},
    {"precision-stanh", "engine-chunked", 0x288E76DE0EA7689AULL},
    {"saturation-or", "reference", 0x408F48D25CEBCBF4ULL},
    {"saturation-or", "engine", 0x408F48D25CEBCBF4ULL},
    {"saturation-or", "engine-chunked", 0x408F48D25CEBCBF4ULL},
    {"corrbias-xor", "reference", 0xE6D898ED9D56AAA1ULL},
    {"corrbias-xor", "engine", 0xE6D898ED9D56AAA1ULL},
    {"corrbias-xor", "engine-chunked", 0xE6D898ED9D56AAA1ULL},
    {"shortstream-mul", "reference", 0x53A5DF2CE59CF7FFULL},
    {"shortstream-mul", "engine", 0x53A5DF2CE59CF7FFULL},
    {"shortstream-mul", "engine-chunked", 0x53A5DF2CE59CF7FFULL},
    {"chain-unrec", "reference", 0xC33DBF229545C306ULL},
    {"chain-unrec", "engine", 0xC33DBF229545C306ULL},
    {"chain-unrec", "engine-chunked", 0xC33DBF229545C306ULL},
};

/// img::run_pipeline / run_pipeline_tiled output checksums; `program` is
/// "<operating point> <variant>", `backend` the entry point.
inline constexpr GoldenEntry kPipelineGolden[] = {
    {"n256-w8 SC no-manipulation", "serial", 0x5587E472EE32F7A5ULL},
    {"n256-w8 SC no-manipulation", "tiled", 0x13A33EA07EB2F8B0ULL},
    {"n256-w8 SC regeneration", "serial", 0xAD1B4C6CD149FF76ULL},
    {"n256-w8 SC regeneration", "tiled", 0xD41607BB1DE4D99EULL},
    {"n256-w8 SC synchronizer", "serial", 0xB890BD7B3C087D9CULL},
    {"n256-w8 SC synchronizer", "tiled", 0xA6FEDC4FE4FE01B3ULL},
    {"n100-w7 SC no-manipulation", "serial", 0x5B1C01626CE33525ULL},
    {"n100-w7 SC no-manipulation", "tiled", 0x13867C6761EAC967ULL},
    {"n100-w7 SC regeneration", "serial", 0x7810D242F0B517AFULL},
    {"n100-w7 SC regeneration", "tiled", 0xA87980081322A482ULL},
    {"n100-w7 SC synchronizer", "serial", 0xE21CEB7439D88063ULL},
    {"n100-w7 SC synchronizer", "tiled", 0xF7DB334B8A341DFEULL},
};

}  // namespace sc::golden
