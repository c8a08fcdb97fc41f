#![warn(missing_docs)]

//! Application communication kernels from the paper, each runnable under
//! every design for MPI+threads communication.
//!
//! | Module | Paper source | Used by |
//! |---|---|---|
//! | [`msgrate`] | Fig. 1(a): message-rate scaling (MPI everywhere vs MPI+threads original vs logically parallel) | `paper` row `E1` |
//! | [`stencil`] | Figs. 1(b), 4; Listings 1–4: 2D 5/9-point halo exchange under all four mechanisms, with the mirrored communicator maps | `paper` rows `E2`, `E4`, `E5`, `E7`, `E9`, `E15` |
//! | [`commcount`] | Lesson 3: communicator-count formula for the 3D 27-point stencil vs minimum channels | `paper` row `E5` |
//! | [`legion`] | Fig. 5, Lesson 5, Fig. 1(c): event-based runtime with a wildcard polling thread | `paper` rows `E3`, `E6` |
//! | [`graph`] | Lesson 5: irregular, dynamically changing communication neighborhoods (Vite-style) | `paper` row `E6.graph` |
//! | [`nwchem`] | Fig. 6, Lesson 16: get-compute-update block-sparse matrix multiplication over RMA | `paper` row `E10` |
//! | [`vasp`] | Fig. 7, Lessons 18–19: multithreaded allreduce designs | `paper` row `E11` |
//! | [`wombat`] | Section II-A windows / WOMBAT: put-based RMA halo, single window vs window-per-thread vs endpoints | `paper` row `E10` |
//! | [`smilei`] | Lessons 6 and 9 / Smilei: particle exchange with app tags — the least-change tags upgrade and its tag-budget cliff | `paper` row `E8` |
//! | [`stream`] | Staged stream topologies (pipeline / farm / farm-with-feedback) with ordered reassembly and credit backpressure over every mechanism | `stream` bench |
//! | [`ft`] | Rank-crash fault tolerance: ring halo that detects a dead neighbor, revokes, shrinks, and finishes on the survivors | `ft_recovery` bench |

pub mod commcount;
pub mod ft;
pub mod graph;
pub mod legion;
pub mod measure;
pub mod msgrate;
pub mod nwchem;
pub mod smilei;
pub mod stencil;
pub mod vasp;
pub mod wombat;

pub use rankmpi_stream as stream;
