#include "ledger/chain.h"
#include <algorithm>


namespace provledger {
namespace ledger {

namespace {
std::string Key(const crypto::Digest& d) { return crypto::DigestHex(d); }
}  // namespace

Blockchain::Blockchain(ChainOptions options) : options_(std::move(options)) {
  obs::Registry* registry = options_.registry != nullptr
                                ? options_.registry
                                : obs::Registry::Default();
  append_seconds_ = registry->GetHistogram(
      "chain_append_seconds", "Block acceptance latency (validate + install)",
      obs::LatencyBuckets());
  validate_seconds_ = registry->GetHistogram(
      "chain_validate_seconds",
      "Block validation + write-ahead persistence latency",
      obs::LatencyBuckets());
  merkle_builds_total_ = registry->GetCounter(
      "chain_merkle_tree_builds_total",
      "Merkle proof trees built (cache misses on the proof path)");
  height_gauge_ =
      registry->GetGauge("chain_height", "Main-chain head height");
  // Genesis: one system transaction binding the chain id.
  Transaction genesis_tx = Transaction::MakeSystem(
      "genesis", "", ToBytes(options_.chain_id), /*timestamp=*/0, /*nonce=*/0);
  Block genesis = Block::Make(0, crypto::ZeroDigest(), {genesis_tx},
                              /*timestamp=*/0, "genesis");
  crypto::Digest hash = genesis.header.Hash();
  blocks_.emplace(Key(hash), std::make_shared<const Block>(std::move(genesis)));
  main_chain_.push_back(hash);
  tx_index_.emplace(Key(genesis_tx.Id()), TxLocation{0, 0});
  RepublishChainView();
}

uint64_t Blockchain::height() const {
  return static_cast<uint64_t>(main_chain_.size()) - 1;
}

crypto::Digest Blockchain::head_hash() const { return main_chain_.back(); }

const Block& Blockchain::genesis() const {
  return *blocks_.at(Key(main_chain_[0]));
}

Status Blockchain::ValidateBlock(const Block& block, const Block& parent,
                                 bool check_merkle_root) const {
  // No prev_hash check: the sole caller (ValidateAndPersist) fetched
  // `parent` from blocks_ by Key(block.header.prev_hash), and every
  // stored block is keyed by its own header hash — the link equality is
  // structural, and re-deriving parent.header.Hash() here would cost a
  // redundant SHA-256 per acceptance.
  if (block.header.height != parent.header.height + 1) {
    return Status::InvalidArgument("block height does not extend parent");
  }
  if (block.header.timestamp < parent.header.timestamp) {
    return Status::InvalidArgument("block timestamp precedes parent");
  }
  if (options_.max_block_txs != 0 &&
      block.transactions.size() > options_.max_block_txs) {
    return Status::InvalidArgument("block exceeds max transaction count");
  }
  if (check_merkle_root && Block::ComputeMerkleRoot(block.transactions) !=
                               block.header.merkle_root) {
    return Status::Corruption("merkle root does not match transactions");
  }
  for (const auto& tx : block.transactions) {
    if (!tx.IsSigned() && !options_.allow_unsigned) {
      return Status::PermissionDenied("unsigned transactions not allowed");
    }
    if (options_.verify_signatures) {
      PROVLEDGER_RETURN_NOT_OK(tx.VerifySignature());
    }
  }
  return Status::OK();
}

Result<crypto::Digest> Blockchain::Append(std::vector<Transaction> txs,
                                          Timestamp timestamp,
                                          const std::string& proposer,
                                          uint64_t nonce) {
  std::vector<PreparedTx> prepared;
  prepared.reserve(txs.size());
  Encoder enc;
  for (auto& tx : txs) {
    prepared.push_back(PreparedTx::From(std::move(tx), &enc));
  }
  return AppendPrepared(&prepared, timestamp, proposer, nonce);
}

PreparedTx PreparedTx::From(Transaction tx, Encoder* scratch) {
  scratch->Clear();
  tx.EncodeTo(scratch);
  const crypto::Digest id = crypto::Sha256::Hash(scratch->buffer());
  const crypto::Digest leaf = crypto::MerkleTree::LeafHash(scratch->buffer());
  return PreparedTx{std::move(tx), id, leaf};
}

Result<crypto::Digest> Blockchain::AppendPrepared(
    std::vector<PreparedTx>* txs, Timestamp timestamp,
    const std::string& proposer, uint64_t nonce,
    const crypto::Digest* precomputed_root) {
  obs::ScopedTimer timer(append_seconds_);
  const crypto::Digest parent_hash = head_hash();
  const Block& parent = *blocks_.at(Key(parent_hash));
  // Root straight from the cached leaf digests — the transactions' bytes
  // are never re-encoded or re-hashed on this path.
  std::vector<crypto::Digest> ids;
  ids.reserve(txs->size());
  for (const auto& ptx : *txs) ids.push_back(ptx.id);
  crypto::Digest root;
  if (precomputed_root != nullptr) {
    root = *precomputed_root;
  } else {
    std::vector<crypto::Digest> leaves;
    leaves.reserve(txs->size());
    for (const auto& ptx : *txs) leaves.push_back(ptx.leaf);
    root = Block::MerkleRootFromLeaves(leaves);
  }
  Block block;
  block.header.height = parent.header.height + 1;
  block.header.prev_hash = parent_hash;
  block.header.merkle_root = root;
  block.header.timestamp = timestamp;
  block.header.nonce = nonce;
  block.header.proposer = proposer;
  block.transactions.reserve(txs->size());
  for (auto& ptx : *txs) block.transactions.push_back(std::move(ptx.tx));
  crypto::Digest hash = block.header.Hash();
  // Two-stage acceptance keeps the hand-back contract structural: every
  // failure point runs before `block` is consumed, so on error the
  // transactions are still here and move straight back into the caller's
  // PreparedTx vector for retry.
  const std::string block_key = Key(hash);
  Status accepted =
      ValidateAndPersist(block, block_key, /*check_merkle_root=*/false);
  if (!accepted.ok()) {
    for (size_t i = 0; i < txs->size(); ++i) {
      (*txs)[i].tx = std::move(block.transactions[i]);
    }
    return accepted;
  }
  InstallBlock(std::move(block), hash, block_key, &ids);
  txs->clear();
  return hash;
}

Status Blockchain::SubmitBlock(const Block& block) {
  obs::ScopedTimer timer(append_seconds_);
  const crypto::Digest hash = block.header.Hash();
  const std::string block_key = Key(hash);
  // Validate against the caller's block; the deep copy (every transaction
  // payload) is only paid once the block is actually going in.
  PROVLEDGER_RETURN_NOT_OK(
      ValidateAndPersist(block, block_key, /*check_merkle_root=*/true));
  InstallBlock(Block(block), hash, block_key, /*cached_ids=*/nullptr);
  return Status::OK();
}

Status Blockchain::ValidateAndPersist(const Block& block,
                                      const std::string& block_key,
                                      bool check_merkle_root) {
  obs::ScopedTimer timer(validate_seconds_);
  if (blocks_.count(block_key)) {
    return Status::AlreadyExists("block already known");
  }
  auto parent_it = blocks_.find(Key(block.header.prev_hash));
  if (parent_it == blocks_.end()) {
    return Status::NotFound("parent block unknown");
  }
  PROVLEDGER_RETURN_NOT_OK(
      ValidateBlock(block, *parent_it->second, check_merkle_root));

  // Write-ahead: the block must be durable before any in-memory state
  // changes, so a crash can never leave the memory view ahead of the log.
  if (block_sink_) PROVLEDGER_RETURN_NOT_OK(block_sink_(block));
  return Status::OK();
}

void Blockchain::InstallBlock(Block&& block, const crypto::Digest& hash,
                              const std::string& block_key,
                              const std::vector<crypto::Digest>* cached_ids) {
  const bool extends_head = block.header.prev_hash == head_hash();
  const Block& stored =
      *blocks_
           .emplace(block_key,
                    std::make_shared<const Block>(std::move(block)))
           .first->second;

  // Fork choice: extending the head is the fast path; a strictly higher
  // side branch triggers a reorg (longest-chain rule).
  if (extends_head) {
    main_chain_.push_back(hash);
    uint32_t idx = 0;
    for (const auto& tx : stored.transactions) {
      // Cached ids (the prepared-ingest path) spare the per-transaction
      // re-encode + re-hash that Id() costs.
      const crypto::Digest id =
          cached_ids != nullptr ? (*cached_ids)[idx] : tx.Id();
      tx_index_[Key(id)] = TxLocation{stored.header.height, idx++};
    }
    RepublishChainView();
    return;
  }
  if (stored.header.height > height()) {
    // Rebuild the main chain by walking parents back to genesis.
    std::vector<crypto::Digest> new_chain;
    crypto::Digest cursor = hash;
    while (true) {
      new_chain.push_back(cursor);
      const Block& b = *blocks_.at(Key(cursor));
      if (b.header.height == 0) break;
      cursor = b.header.prev_hash;
    }
    std::reverse(new_chain.begin(), new_chain.end());
    main_chain_ = std::move(new_chain);
    ReindexMainChain();
    RepublishChainView();
  }
}

void Blockchain::ReindexMainChain() {
  tx_index_.clear();
  for (const auto& hash : main_chain_) {
    const Block& b = *blocks_.at(Key(hash));
    uint32_t idx = 0;
    for (const auto& tx : b.transactions) {
      tx_index_[Key(tx.Id())] = TxLocation{b.header.height, idx++};
    }
  }
}

void Blockchain::RepublishChainView() {
  auto view = std::make_shared<ChainView>();
  view->blocks.reserve(main_chain_.size());
  view->hashes = main_chain_;
  for (const auto& hash : main_chain_) {
    view->blocks.push_back(blocks_.at(Key(hash)));
  }
  std::atomic_store(&view_,
                    std::shared_ptr<const ChainView>(std::move(view)));
  height_gauge_->Set(static_cast<int64_t>(height()));
}

std::shared_ptr<const ChainView> Blockchain::AcquireChainView() const {
  return std::atomic_load(&view_);
}

Result<crypto::Digest> Blockchain::BlockHashAt(uint64_t h) const {
  if (h >= main_chain_.size()) {
    return Status::NotFound("no block at height " + std::to_string(h));
  }
  return main_chain_[h];
}

std::vector<const Block*> Blockchain::PeekRange(uint64_t from,
                                                size_t max_blocks) const {
  std::vector<const Block*> out;
  for (uint64_t h = from; h < main_chain_.size() && out.size() < max_blocks;
       ++h) {
    out.push_back(blocks_.at(Key(main_chain_[h])).get());
  }
  return out;
}

Result<Block> Blockchain::GetBlock(uint64_t h) const {
  if (h >= main_chain_.size()) {
    return Status::NotFound("no block at height " + std::to_string(h));
  }
  return *blocks_.at(Key(main_chain_[h]));
}

const Block* Blockchain::PeekBlock(uint64_t h) const {
  if (h >= main_chain_.size()) return nullptr;
  return blocks_.at(Key(main_chain_[h])).get();
}

Result<Block> Blockchain::GetBlockByHash(const crypto::Digest& hash) const {
  auto it = blocks_.find(Key(hash));
  if (it == blocks_.end()) return Status::NotFound("unknown block hash");
  return *it->second;
}

Result<BlockHeader> Blockchain::GetHeader(uint64_t h) const {
  PROVLEDGER_ASSIGN_OR_RETURN(Block b, GetBlock(h));
  return b.header;
}

Result<TxLocation> Blockchain::FindTransaction(
    const crypto::Digest& txid) const {
  auto it = tx_index_.find(Key(txid));
  if (it == tx_index_.end()) {
    return Status::NotFound("transaction not on main chain");
  }
  return it->second;
}

Result<Transaction> Blockchain::GetTransaction(
    const crypto::Digest& txid) const {
  PROVLEDGER_ASSIGN_OR_RETURN(TxLocation loc, FindTransaction(txid));
  // Reference the stored block directly: GetBlock would copy the whole
  // block (every transaction) to hand back one of them.
  const Block& b = *blocks_.at(Key(main_chain_[loc.height]));
  return b.transactions[loc.index];
}

std::vector<Transaction> Blockchain::GetChannelTransactions(
    const std::string& channel) const {
  std::vector<Transaction> out;
  for (const auto& hash : main_chain_) {
    const Block& b = *blocks_.at(Key(hash));
    for (const auto& tx : b.transactions) {
      if (tx.channel == channel) out.push_back(tx);
    }
  }
  return out;
}

const crypto::MerkleTree& Blockchain::TreeFor(const std::string& block_key,
                                              const Block& block) const {
  auto it = merkle_cache_.find(block_key);
  if (it != merkle_cache_.end()) return it->second;
  if (options_.merkle_cache_blocks != 0) {
    while (merkle_cache_.size() >= options_.merkle_cache_blocks &&
           !merkle_cache_order_.empty()) {
      merkle_cache_.erase(merkle_cache_order_.front());
      merkle_cache_order_.pop_front();
    }
  }
  merkle_builds_total_->Increment();
  merkle_cache_order_.push_back(block_key);
  return merkle_cache_
      .emplace(block_key, crypto::MerkleTree::Build(
                              Block::TxLeaves(block.transactions)))
      .first->second;
}

Result<TxProof> Blockchain::ProveTransaction(const crypto::Digest& txid) const {
  PROVLEDGER_ASSIGN_OR_RETURN(TxLocation loc, FindTransaction(txid));
  const std::string block_key = Key(main_chain_[loc.height]);
  const Block& b = *blocks_.at(block_key);
  TxProof proof;
  proof.block_hash = main_chain_[loc.height];
  proof.header = b.header;
  PROVLEDGER_ASSIGN_OR_RETURN(proof.merkle_proof,
                              TreeFor(block_key, b).Prove(loc.index));
  return proof;
}

bool Blockchain::VerifyTxProofAgainstHeader(const Bytes& tx_encoding,
                                            const TxProof& proof) {
  if (proof.header.Hash() != proof.block_hash) return false;
  return crypto::MerkleTree::VerifyProof(proof.header.merkle_root,
                                         tx_encoding, proof.merkle_proof);
}

bool Blockchain::VerifyTxProof(const Bytes& tx_encoding,
                               const TxProof& proof) const {
  if (!VerifyTxProofAgainstHeader(tx_encoding, proof)) return false;
  // The proof's block must be on *this* chain's main branch.
  if (proof.header.height >= main_chain_.size()) return false;
  return main_chain_[proof.header.height] == proof.block_hash;
}

Status Blockchain::VerifyIntegrity() const {
  for (size_t h = 0; h < main_chain_.size(); ++h) {
    const Block& b = *blocks_.at(Key(main_chain_[h]));
    if (b.header.height != h) {
      return Status::Corruption("height mismatch at " + std::to_string(h));
    }
    if (Block::ComputeMerkleRoot(b.transactions) != b.header.merkle_root) {
      return Status::Corruption("merkle root mismatch at height " +
                                std::to_string(h));
    }
    if (h > 0) {
      const Block& parent = *blocks_.at(Key(main_chain_[h - 1]));
      if (b.header.prev_hash != parent.header.Hash()) {
        return Status::Corruption("hash chain broken at height " +
                                  std::to_string(h));
      }
    }
    if (options_.verify_signatures) {
      for (const auto& tx : b.transactions) {
        Status s = tx.VerifySignature();
        if (!s.ok()) {
          return Status::Corruption("bad signature at height " +
                                    std::to_string(h) + ": " + s.message());
        }
      }
    }
  }
  return Status::OK();
}

size_t Blockchain::ApproximateBytes() const {
  size_t total = 0;
  for (const auto& hash : main_chain_) {
    total += blocks_.at(Key(hash))->EncodedSize();
  }
  return total;
}

Status Blockchain::TamperForTesting(uint64_t height, size_t tx_index,
                                    uint8_t xor_mask) {
  if (height >= main_chain_.size()) {
    return Status::NotFound("no block at that height");
  }
  // Installed blocks are shared immutably with published ChainViews; the
  // const_cast is this hook's documented single-threaded-test exception.
  Block& b = const_cast<Block&>(*blocks_.at(Key(main_chain_[height])));
  if (tx_index >= b.transactions.size()) {
    return Status::NotFound("no transaction at that index");
  }
  Bytes& payload = b.transactions[tx_index].payload;
  if (payload.empty()) payload.push_back(0);
  payload[0] ^= xor_mask;
  // The stored block no longer matches any cached proof tree. Purge the
  // FIFO entry too so the map and eviction order stay one-to-one.
  const std::string block_key = Key(main_chain_[height]);
  merkle_cache_.erase(block_key);
  merkle_cache_order_.erase(std::remove(merkle_cache_order_.begin(),
                                        merkle_cache_order_.end(), block_key),
                            merkle_cache_order_.end());
  return Status::OK();
}

Status Mempool::Add(const Transaction& tx) {
  const std::string id = crypto::DigestHex(tx.Id());
  if (seen_.count(id)) {
    return Status::AlreadyExists("transaction already in mempool");
  }
  if (verify_signatures_) {
    PROVLEDGER_RETURN_NOT_OK(tx.VerifySignature());
  }
  seen_.emplace(id, true);
  queue_.push_back(tx);
  return Status::OK();
}

std::vector<Transaction> Mempool::Take(size_t max_count) {
  size_t n = (max_count == 0 || max_count > queue_.size()) ? queue_.size()
                                                           : max_count;
  std::vector<Transaction> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::move(queue_.front()));
    seen_.erase(crypto::DigestHex(out.back().Id()));
    queue_.pop_front();
  }
  return out;
}

}  // namespace ledger
}  // namespace provledger
