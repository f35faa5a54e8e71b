//! Wall materials and their interaction losses.
//!
//! The image-method ray tracer attenuates a path once per specular bounce
//! (reflection loss) and once per wall crossed (transmission loss). The
//! presets are typical values for 5 GHz indoor propagation, coarse on
//! purpose: RIM only needs the multipath field to be *rich and spatially
//! diverse*, not calibrated to a specific building.

use serde::{Deserialize, Serialize};

/// Electromagnetic interaction losses of a wall material at ~5 GHz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Material {
    /// Power loss on specular reflection, in dB (≥ 0).
    pub reflection_loss_db: f64,
    /// Power loss on transmission through the wall, in dB (≥ 0).
    pub transmission_loss_db: f64,
}

impl Material {
    /// Creates a material from reflection and transmission losses in dB.
    ///
    /// # Panics
    /// Panics if either loss is negative or non-finite.
    pub fn new(reflection_loss_db: f64, transmission_loss_db: f64) -> Self {
        assert!(
            reflection_loss_db >= 0.0 && reflection_loss_db.is_finite(),
            "reflection loss must be a non-negative finite dB value"
        );
        assert!(
            transmission_loss_db >= 0.0 && transmission_loss_db.is_finite(),
            "transmission loss must be a non-negative finite dB value"
        );
        Self {
            reflection_loss_db,
            transmission_loss_db,
        }
    }

    /// Interior drywall / plasterboard partition.
    pub fn drywall() -> Self {
        Self::new(7.0, 4.0)
    }

    /// Load-bearing concrete wall or pillar.
    pub fn concrete() -> Self {
        Self::new(4.0, 12.0)
    }

    /// Glass partition.
    pub fn glass() -> Self {
        Self::new(9.0, 2.0)
    }

    /// Metal surface (whiteboard, cabinet, elevator door): strong reflector,
    /// near-opaque to transmission.
    pub fn metal() -> Self {
        Self::new(1.0, 30.0)
    }

    /// Amplitude (voltage) coefficient applied per reflection,
    /// `10^(-loss/20)`.
    pub fn reflection_coeff(&self) -> f64 {
        db_to_amplitude(-self.reflection_loss_db)
    }

    /// Amplitude (voltage) coefficient applied per transmission.
    pub fn transmission_coeff(&self) -> f64 {
        db_to_amplitude(-self.transmission_loss_db)
    }
}

impl Default for Material {
    fn default() -> Self {
        Self::drywall()
    }
}

/// Converts a power gain in dB to an amplitude (voltage) factor.
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_are_sub_unity() {
        for m in [
            Material::drywall(),
            Material::concrete(),
            Material::glass(),
            Material::metal(),
        ] {
            assert!(m.reflection_coeff() > 0.0 && m.reflection_coeff() < 1.0);
            assert!(m.transmission_coeff() > 0.0 && m.transmission_coeff() < 1.0);
        }
    }

    #[test]
    fn db_round_trip() {
        for db in [-30.0, -6.0, 0.0, 3.0] {
            let amp = db_to_amplitude(db);
            assert!((20.0 * amp.log10() - db).abs() < 1e-12);
        }
        assert!((db_to_amplitude(0.0) - 1.0).abs() < 1e-12);
        assert!((db_to_amplitude(-20.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn metal_reflects_better_than_drywall() {
        assert!(Material::metal().reflection_coeff() > Material::drywall().reflection_coeff());
        assert!(Material::metal().transmission_coeff() < Material::drywall().transmission_coeff());
    }

    #[test]
    #[should_panic(expected = "reflection loss")]
    fn negative_loss_rejected() {
        let _ = Material::new(-1.0, 0.0);
    }
}
