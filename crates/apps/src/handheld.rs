//! The handheld demos: handheld editor and handheld music player.
//!
//! These are the PDA-class variants from §5; their components are slimmer
//! and their device requirements mark them as handheld-targeted, so the
//! adaptor scales their UI when they land on a PC (or vice versa).

use mdagent_core::{
    AppId, Component, ComponentKind, ComponentSet, CoreError, Middleware, UserProfile,
};
use mdagent_simnet::{HostId, Simulator};

/// Handle to a deployed handheld editor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandheldEditor {
    /// The underlying application instance.
    pub app: AppId,
}

impl HandheldEditor {
    /// Registry name.
    pub const NAME: &'static str = "handheld-editor";

    /// Slim components for a PDA.
    pub fn components(note_bytes: usize) -> ComponentSet {
        [
            Component::synthetic("note-engine", ComponentKind::Logic, 60_000),
            Component::synthetic("note-ui", ComponentKind::Presentation, 24_000),
            Component::synthetic("notes", ComponentKind::Data, note_bytes),
        ]
        .into_iter()
        .collect()
    }

    /// Deploys on a (typically handheld) host.
    ///
    /// # Errors
    ///
    /// Propagates deployment failures.
    pub fn deploy(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        host: HostId,
        profile: UserProfile,
        note_bytes: usize,
    ) -> Result<HandheldEditor, CoreError> {
        let app = Middleware::deploy_app(
            world,
            sim,
            Self::NAME,
            host,
            Self::components(note_bytes),
            profile,
        )?;
        world
            .app_mut(app)?
            .coordinator
            .register_observer("note-view");
        Middleware::update_app_state(world, sim, app, "note", "")?;
        Ok(HandheldEditor { app })
    }

    /// Appends a quick note.
    ///
    /// # Errors
    ///
    /// Propagates unknown-app errors.
    pub fn jot(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        editor: HandheldEditor,
        text: &str,
    ) -> Result<(), CoreError> {
        let mut note = world
            .app(editor.app)?
            .coordinator
            .state("note")
            .unwrap_or("")
            .to_owned();
        if !note.is_empty() {
            note.push('\n');
        }
        note.push_str(text);
        Middleware::update_app_state(world, sim, editor.app, "note", &note)?;
        Ok(())
    }

    /// Current note text.
    ///
    /// # Errors
    ///
    /// Propagates unknown-app errors.
    pub fn note(world: &Middleware, editor: HandheldEditor) -> Result<String, CoreError> {
        Ok(world
            .app(editor.app)?
            .coordinator
            .state("note")
            .unwrap_or("")
            .to_owned())
    }
}

/// Handle to a deployed handheld music player.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandheldPlayer {
    /// The underlying application instance.
    pub app: AppId,
}

impl HandheldPlayer {
    /// Registry name.
    pub const NAME: &'static str = "handheld-music-player";

    /// Slim components: a low-bitrate codec and tiny UI.
    pub fn components(track_bytes: usize) -> ComponentSet {
        [
            Component::synthetic("micro-codec", ComponentKind::Logic, 45_000),
            Component::synthetic("micro-ui", ComponentKind::Presentation, 12_000),
            Component::synthetic("track", ComponentKind::Data, track_bytes),
        ]
        .into_iter()
        .collect()
    }

    /// Deploys on a (typically handheld) host.
    ///
    /// # Errors
    ///
    /// Propagates deployment failures.
    pub fn deploy(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        host: HostId,
        profile: UserProfile,
        track_bytes: usize,
    ) -> Result<HandheldPlayer, CoreError> {
        let app = Middleware::deploy_app(
            world,
            sim,
            Self::NAME,
            host,
            Self::components(track_bytes),
            profile,
        )?;
        Middleware::update_app_state(world, sim, app, "volume", "5")?;
        Ok(HandheldPlayer { app })
    }

    /// Changes the volume, clamped to `0..=10`.
    ///
    /// # Errors
    ///
    /// Propagates unknown-app errors.
    pub fn set_volume(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        player: HandheldPlayer,
        volume: i32,
    ) -> Result<u32, CoreError> {
        let v = volume.clamp(0, 10) as u32;
        Middleware::update_app_state(world, sim, player.app, "volume", &v.to_string())?;
        Ok(v)
    }

    /// Current volume.
    ///
    /// # Errors
    ///
    /// Propagates unknown-app errors.
    pub fn volume(world: &Middleware, player: HandheldPlayer) -> Result<u32, CoreError> {
        Ok(world
            .app(player.app)?
            .coordinator
            .state("volume")
            .and_then(|v| v.parse().ok())
            .unwrap_or(5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{default_profile, two_space_world};

    #[test]
    fn handheld_editor_jots_notes() {
        let (mut world, mut sim, hosts) = two_space_world();
        let ed = HandheldEditor::deploy(
            &mut world,
            &mut sim,
            hosts.office_pda,
            default_profile(),
            20_000,
        )
        .unwrap();
        HandheldEditor::jot(&mut world, &mut sim, ed, "buy milk").unwrap();
        HandheldEditor::jot(&mut world, &mut sim, ed, "review paper").unwrap();
        assert_eq!(
            HandheldEditor::note(&world, ed).unwrap(),
            "buy milk\nreview paper"
        );
        // Slim: total component bytes well under the PC editor.
        let components = &world.app(ed.app).unwrap().components;
        assert!(components.iter().map(Component::size).sum::<u64>() < 200_000);
    }

    #[test]
    fn handheld_player_volume_clamps() {
        let (mut world, mut sim, hosts) = two_space_world();
        let p = HandheldPlayer::deploy(
            &mut world,
            &mut sim,
            hosts.office_pda,
            default_profile(),
            900_000,
        )
        .unwrap();
        assert_eq!(
            HandheldPlayer::set_volume(&mut world, &mut sim, p, 15).unwrap(),
            10
        );
        assert_eq!(HandheldPlayer::volume(&world, p).unwrap(), 10);
        assert_eq!(
            HandheldPlayer::set_volume(&mut world, &mut sim, p, -3).unwrap(),
            0
        );
    }
}
