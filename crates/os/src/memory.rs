//! Memory and swap model.
//!
//! Figure 2 of the paper shows that FreeBSD's execution time "increases a lot as soon as virtual
//! memory (swap) is used", while Linux 2.6 keeps execution times flat even when the aggregate
//! working set exceeds physical memory. The P2PLab authors conclude they must keep experiments
//! inside physical memory; the model below reproduces that cliff so the reproduction can draw
//! the same conclusion.

/// Host operating system flavour; controls how gracefully memory overcommit degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsKind {
    /// FreeBSD 6 (the OS P2PLab runs on, because of Dummynet).
    FreeBsd,
    /// Linux 2.6.
    Linux,
}

impl OsKind {
    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            OsKind::FreeBsd => "FreeBSD",
            OsKind::Linux => "Linux 2.6",
        }
    }
}

/// Parameters of the memory subsystem of a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Physical memory, in bytes (GridExplorer nodes: 2 GB).
    pub ram_bytes: u64,
    /// Swap space, in bytes. Demand beyond RAM + swap makes `spawn` fail.
    pub swap_bytes: u64,
    /// Slowdown per unit of overcommit once swap is in use. FreeBSD thrashes hard; Linux's
    /// memory management keeps the figure flat.
    pub swap_penalty: f64,
}

impl MemoryModel {
    /// The paper's GridExplorer nodes: 2 GB of RAM, 4 GB of swap.
    pub fn grid_explorer(os: OsKind) -> MemoryModel {
        MemoryModel {
            ram_bytes: 2 << 30,
            swap_bytes: 4 << 30,
            swap_penalty: match os {
                OsKind::FreeBsd => 6.0,
                OsKind::Linux => 0.25,
            },
        }
    }

    /// Total memory a machine can host before `spawn` refuses new processes.
    pub fn capacity(&self) -> u64 {
        self.ram_bytes.saturating_add(self.swap_bytes)
    }

    /// Multiplicative slowdown applied to every process's CPU rate when `resident` bytes are in
    /// use. 1.0 while everything fits in RAM; grows linearly with the overcommit fraction once
    /// swap is used.
    pub fn thrash_factor(&self, resident: u64) -> f64 {
        if resident <= self.ram_bytes || self.ram_bytes == 0 {
            return 1.0;
        }
        let excess = (resident - self.ram_bytes) as f64 / self.ram_bytes as f64;
        1.0 + self.swap_penalty * excess
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_penalty_inside_ram() {
        let m = MemoryModel::grid_explorer(OsKind::FreeBsd);
        assert_eq!(m.thrash_factor(0), 1.0);
        assert_eq!(m.thrash_factor(m.ram_bytes), 1.0);
    }

    #[test]
    fn freebsd_cliff_is_much_steeper_than_linux() {
        let bsd = MemoryModel::grid_explorer(OsKind::FreeBsd);
        let linux = MemoryModel::grid_explorer(OsKind::Linux);
        let resident = 4 << 30; // 2x overcommit
        let f_bsd = bsd.thrash_factor(resident);
        let f_linux = linux.thrash_factor(resident);
        assert!(f_bsd > 5.0, "FreeBSD should thrash hard: {f_bsd}");
        assert!(f_linux < 1.5, "Linux should stay nearly flat: {f_linux}");
        assert!(f_bsd / f_linux > 4.0);
    }

    #[test]
    fn thrash_grows_with_overcommit() {
        let m = MemoryModel::grid_explorer(OsKind::FreeBsd);
        let f1 = m.thrash_factor(3 << 30);
        let f2 = m.thrash_factor(4 << 30);
        assert!(f2 > f1);
    }

    #[test]
    fn capacity_is_ram_plus_swap() {
        let m = MemoryModel::grid_explorer(OsKind::Linux);
        assert_eq!(m.capacity(), (2u64 << 30) + (4u64 << 30));
    }
}
