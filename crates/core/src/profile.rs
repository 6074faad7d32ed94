//! Description files of the application model's upper level: user
//! profiles, device profiles (paper Fig. 3).

use std::collections::BTreeMap;

use mdagent_context::UserId;
use mdagent_simnet::HostId;
use mdagent_wire::impl_wire_struct;

/// A user's stable preferences ("users have specific operation habits and
/// preferences", §1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UserProfile {
    user_raw: u32,
    preferences: BTreeMap<String, String>,
}

impl_wire_struct!(UserProfile {
    user_raw,
    preferences
});

impl UserProfile {
    /// Creates an empty profile for a user.
    pub fn new(user: UserId) -> Self {
        UserProfile {
            user_raw: user.0,
            preferences: BTreeMap::new(),
        }
    }

    /// The profile's user.
    pub fn user(&self) -> UserId {
        UserId(self.user_raw)
    }

    /// Sets a preference (builder style).
    pub fn with_preference(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.preferences.insert(key.into(), value.into());
        self
    }

    /// Updates a preference in place.
    pub fn set_preference(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.preferences.insert(key.into(), value.into());
    }

    /// Reads a preference.
    pub fn preference(&self, key: &str) -> Option<&str> {
        self.preferences.get(key).map(String::as_str)
    }

    /// Whether the user is left-handed (the paper's running §1 example).
    pub fn is_left_handed(&self) -> bool {
        self.preference("handedness") == Some("left")
    }
}

/// Capabilities of a device (screen size, resolution, audio), used by the
/// adaptor to bridge mismatches after migration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    host_raw: u32,
    /// Screen width in pixels.
    pub screen_width: u32,
    /// Screen height in pixels.
    pub screen_height: u32,
    /// Display density in dots per inch.
    pub dpi: u32,
    /// Whether audio output exists.
    pub has_audio: bool,
    /// Rough device class for requirement checks.
    pub class: DeviceClass,
}

/// Broad device classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Desktop or laptop computer.
    Pc,
    /// Handheld device (PDA in the paper's vocabulary).
    Handheld,
    /// Wall display / projector host.
    WallDisplay,
}

mdagent_wire::impl_wire_enum!(DeviceClass {
    Pc = 0,
    Handheld = 1,
    WallDisplay = 2,
});

impl_wire_struct!(DeviceProfile {
    host_raw,
    screen_width,
    screen_height,
    dpi,
    has_audio,
    class
});

impl DeviceProfile {
    /// A standard desktop PC profile.
    pub fn pc(host: HostId) -> Self {
        DeviceProfile {
            host_raw: host.0,
            screen_width: 1280,
            screen_height: 1024,
            dpi: 96,
            has_audio: true,
            class: DeviceClass::Pc,
        }
    }

    /// A PDA-class handheld profile (small screen, as in the paper's
    /// handheld editor / music player demos).
    pub fn handheld(host: HostId) -> Self {
        DeviceProfile {
            host_raw: host.0,
            screen_width: 320,
            screen_height: 240,
            dpi: 120,
            has_audio: true,
            class: DeviceClass::Handheld,
        }
    }

    /// A meeting-room wall display.
    pub fn wall_display(host: HostId) -> Self {
        DeviceProfile {
            host_raw: host.0,
            screen_width: 1920,
            screen_height: 1080,
            dpi: 72,
            has_audio: false,
            class: DeviceClass::WallDisplay,
        }
    }

    /// Checks a `key=value` requirement (numeric keys compare `>=`).
    pub fn satisfies(&self, key: &str, value: &str) -> bool {
        match key {
            "screen-width" => value
                .parse::<u32>()
                .is_ok_and(|needed| self.screen_width >= needed),
            "screen-height" => value
                .parse::<u32>()
                .is_ok_and(|needed| self.screen_height >= needed),
            "audio" => {
                let needed = value == "true" || value == "yes";
                !needed || self.has_audio
            }
            "class" => match value {
                "pc" => self.class == DeviceClass::Pc,
                "handheld" => self.class == DeviceClass::Handheld,
                "wall-display" => self.class == DeviceClass::WallDisplay,
                _ => false,
            },
            _ => true, // unknown requirements are not ours to veto
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdagent_wire::{from_bytes, to_bytes};

    #[test]
    fn preferences_roundtrip() {
        let p = UserProfile::new(UserId(3))
            .with_preference("handedness", "left")
            .with_preference("volume", "7");
        assert!(p.is_left_handed());
        assert_eq!(p.preference("volume"), Some("7"));
        assert_eq!(p.preference("nope"), None);
        assert_eq!(p.user(), UserId(3));
        let back: UserProfile = from_bytes(&to_bytes(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn device_requirement_checks() {
        let pc = DeviceProfile::pc(HostId(0));
        assert!(pc.satisfies("screen-width", "800"));
        assert!(!DeviceProfile::handheld(HostId(1)).satisfies("screen-width", "800"));
        assert!(pc.satisfies("audio", "true"));
        assert!(!DeviceProfile::wall_display(HostId(2)).satisfies("audio", "true"));
        assert!(pc.satisfies("class", "pc"));
        assert!(!pc.satisfies("class", "handheld"));
        assert!(pc.satisfies("unknown-key", "whatever"));
        assert!(!pc.satisfies("class", "toaster"));
    }

    #[test]
    fn device_profiles_differ_sensibly() {
        let pc = DeviceProfile::pc(HostId(0));
        let pda = DeviceProfile::handheld(HostId(1));
        let area = |p: &DeviceProfile| u64::from(p.screen_width) * u64::from(p.screen_height);
        assert!(area(&pc) > area(&pda));
        assert_eq!(pda.host_raw, 1);
        let back: DeviceProfile = from_bytes(&to_bytes(&pda)).unwrap();
        assert_eq!(back, pda);
    }

    #[test]
    fn malformed_numeric_requirement_is_unsatisfied() {
        let pc = DeviceProfile::pc(HostId(0));
        assert!(!pc.satisfies("screen-width", "not-a-number"));
    }
}
