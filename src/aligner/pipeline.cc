#include "aligner/pipeline.h"

#include <algorithm>

#include "aligner/stage.h"

namespace seedex {

std::unique_ptr<ExtensionEngine>
makeEngine(const PipelineConfig &config)
{
    switch (config.engine) {
      case EngineKind::FullBand:
        return std::make_unique<FullBandEngine>(config.extension.scoring,
                                                config.extension.end_bonus);
      case EngineKind::Banded:
        return std::make_unique<BandedEngine>(config.band,
                                              config.extension.scoring,
                                              config.extension.end_bonus,
                                              config.seedex.zdrop);
      case EngineKind::SeedEx:
      case EngineKind::Device: {
        SeedExConfig sx = config.seedex;
        sx.band = config.band;
        sx.scoring = config.extension.scoring;
        if (config.engine == EngineKind::Device)
            return std::make_unique<DeviceEngine>(sx);
        return std::make_unique<SeedExEngine>(sx);
      }
    }
    return nullptr;
}

SamRecord
bestChainRecord(const std::string &name, const Sequence &read,
                std::span<const ChainSlot> slots, const Sequence &reference,
                const PipelineConfig &config, size_t &chosen)
{
    chosen = 0;
    int sub = 0;
    for (size_t i = 1; i < slots.size(); ++i) {
        if (slots[i].aln.score > slots[chosen].aln.score) {
            sub = slots[chosen].aln.score;
            chosen = i;
        } else {
            sub = std::max(sub, slots[i].aln.score);
        }
    }
    return buildSamRecord(name, read, slots[chosen].aln, sub, reference,
                          config.extension.scoring, config.contigs);
}

Aligner::Aligner(const Sequence &reference, PipelineConfig config)
    : Aligner(reference, std::move(config), nullptr)
{}

Aligner::Aligner(const Sequence &reference, PipelineConfig config,
                 std::unique_ptr<FmdIndex> index)
    : ref_(reference), config_(std::move(config)),
      index_(index ? std::move(index)
                   : std::make_unique<FmdIndex>(reference)),
      stage_(std::make_unique<AlignStage>(ref_, *index_, config_)),
      ctx_(std::make_unique<StageCtx>(config_))
{}

Aligner::~Aligner() = default;

ExtensionEngine &
Aligner::engine()
{
    return *ctx_->engine;
}

SamRecord
Aligner::alignRead(const std::string &name, const Sequence &read,
                   PipelineStats *stats,
                   std::vector<ExtensionJob> *capture)
{
    return std::move(alignBatch({{name, read}}, stats, capture).front());
}

std::vector<SamRecord>
Aligner::alignBatch(
    const std::vector<std::pair<std::string, Sequence>> &reads,
    PipelineStats *stats, std::vector<ExtensionJob> *capture)
{
    std::vector<SamRecord> records(reads.size());
    ctx_->stats = stats;
    ctx_->capture = capture;
    next_read_index_ += alignInline(
        *stage_, *ctx_, copyingSource(reads),
        std::min(kDefaultBatchSize, reads.size()), nullptr,
        [&](size_t i, SamRecord &&rec) { records[i] = std::move(rec); },
        next_read_index_);
    ctx_->stats = nullptr;
    ctx_->capture = nullptr;
    return records;
}

} // namespace seedex
