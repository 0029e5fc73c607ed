//! Torrent metadata (the subset of a metainfo file the experiments need).
//!
//! The paper's experiments distribute a 16 MB file; BitTorrent always splits the file into
//! 256 KB pieces, and clients transfer pieces in 16 KiB blocks. The exact content does not
//! matter to the dynamics, so pieces carry sizes rather than data.

/// The piece size the paper quotes ("the file is always divided in pieces of 256 KB").
pub const DEFAULT_PIECE_SIZE: u32 = 256 * 1024;
/// The block ("sub-piece") size BitTorrent requests: 16 KiB.
pub const DEFAULT_BLOCK_SIZE: u32 = 16 * 1024;

/// Metadata of the distributed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torrent {
    /// Torrent name (for reports).
    pub name: String,
    /// Total file size in bytes.
    pub total_bytes: u64,
    /// Piece size in bytes.
    pub piece_size: u32,
    /// Block (request granularity) size in bytes.
    pub block_size: u32,
}

impl Torrent {
    /// Creates a torrent with the default piece and block sizes.
    pub fn new(name: impl Into<String>, total_bytes: u64) -> Torrent {
        Torrent {
            name: name.into(),
            total_bytes,
            piece_size: DEFAULT_PIECE_SIZE,
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }

    /// The 16 MB file used throughout the paper's BitTorrent experiments.
    pub fn paper_16mb() -> Torrent {
        Torrent::new("paper-16MB", 16 * 1024 * 1024)
    }

    /// Number of pieces.
    pub fn num_pieces(&self) -> u32 {
        self.total_bytes.div_ceil(self.piece_size as u64) as u32
    }

    /// Size in bytes of piece `piece` (the last piece may be shorter).
    pub fn piece_len(&self, piece: u32) -> u32 {
        assert!(piece < self.num_pieces(), "piece index out of range");
        let start = piece as u64 * self.piece_size as u64;
        (self.total_bytes - start).min(self.piece_size as u64) as u32
    }

    /// Number of blocks in piece `piece`.
    pub fn blocks_in_piece(&self, piece: u32) -> u32 {
        self.piece_len(piece).div_ceil(self.block_size)
    }

    /// Size in bytes of block `block` of piece `piece`.
    pub fn block_len(&self, piece: u32, block: u32) -> u32 {
        assert!(
            block < self.blocks_in_piece(piece),
            "block index out of range"
        );
        let start = block * self.block_size;
        (self.piece_len(piece) - start).min(self.block_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_torrent_geometry() {
        let t = Torrent::paper_16mb();
        assert_eq!(t.num_pieces(), 64);
        assert_eq!(t.piece_len(0), 256 * 1024);
        assert_eq!(t.piece_len(63), 256 * 1024);
        assert_eq!(t.blocks_in_piece(0), 16);
        assert_eq!(t.block_len(0, 0), 16 * 1024);
        let blocks: u32 = (0..t.num_pieces()).map(|p| t.blocks_in_piece(p)).sum();
        assert_eq!(blocks, 64 * 16);
    }

    #[test]
    fn irregular_last_piece() {
        // 1 MB + 100 KB file: 5 pieces, the last one short.
        let t = Torrent::new("odd", 1024 * 1024 + 100 * 1024);
        assert_eq!(t.num_pieces(), 5);
        assert_eq!(t.piece_len(4), 100 * 1024);
        assert_eq!(t.blocks_in_piece(4), 7);
        assert_eq!(t.block_len(4, 6), 100 * 1024 - 6 * 16 * 1024);
        // All block lengths over all pieces sum to the file size.
        let sum: u64 = (0..t.num_pieces())
            .flat_map(|p| (0..t.blocks_in_piece(p)).map(move |b| (p, b)))
            .map(|(p, b)| t.block_len(p, b) as u64)
            .sum();
        assert_eq!(sum, t.total_bytes);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn piece_index_checked() {
        Torrent::paper_16mb().piece_len(64);
    }
}
