//! Pipeline configuration.
//!
//! Paper §3.1: dgen takes *"(1) the depth and width of the pipeline (i.e.
//! number of stages and number of ALUs per stage)"*. Each stage holds
//! `width` stateless ALUs and `width` stateful ALUs (Fig. 2); the PHV length
//! defaults to the width but can be set independently, since "the program
//! complexity and number of PHV containers the program uses dictated the
//! pipeline dimensions" (§5.1).

use crate::error::{Error, Result};

/// Dimensions of a simulated RMT pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Number of pipeline stages.
    pub depth: usize,
    /// Number of stateless ALUs per stage (and, equally, stateful ALUs per
    /// stage).
    pub width: usize,
    /// Number of PHV containers.
    pub phv_length: usize,
}

impl PipelineConfig {
    /// A `depth × width` pipeline with PHV length equal to `width` (the
    /// shape shown in the paper's Fig. 2).
    pub fn new(depth: usize, width: usize) -> Self {
        PipelineConfig {
            depth,
            width,
            phv_length: width,
        }
    }

    /// A pipeline whose PHV length differs from its width.
    pub fn with_phv_length(depth: usize, width: usize, phv_length: usize) -> Self {
        PipelineConfig {
            depth,
            width,
            phv_length,
        }
    }

    /// Validate that the configuration describes a realizable pipeline.
    pub fn validate(&self) -> Result<()> {
        if self.depth == 0 || self.width == 0 || self.phv_length == 0 {
            return Err(Error::InvalidConfig {
                message: format!(
                    "pipeline dimensions must be non-zero (depth={}, width={}, phv_length={})",
                    self.depth, self.width, self.phv_length
                ),
            });
        }
        Ok(())
    }

    /// The number of selectable inputs of every output mux: pass-through
    /// plus each stateless and each stateful ALU output of the stage.
    pub fn output_mux_inputs(&self) -> usize {
        2 * self.width + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_defaults_phv_length_to_width() {
        let c = PipelineConfig::new(4, 2);
        assert_eq!(c.phv_length, 2);
        assert_eq!(c.output_mux_inputs(), 5);
    }

    #[test]
    fn with_phv_length_overrides() {
        let c = PipelineConfig::with_phv_length(2, 1, 3);
        assert_eq!(c.phv_length, 3);
        c.validate().unwrap();
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(PipelineConfig::new(0, 2).validate().is_err());
        assert!(PipelineConfig::new(2, 0).validate().is_err());
        assert!(PipelineConfig::with_phv_length(1, 1, 0).validate().is_err());
    }
}
