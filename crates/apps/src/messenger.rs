//! The follow-me instant messenger (the sixth demo of §5): conversation
//! state follows its user between hosts.

use mdagent_core::{
    AppId, Component, ComponentKind, ComponentSet, CoreError, Middleware, UserProfile,
};
use mdagent_simnet::{HostId, Simulator};

/// Handle to a deployed instant messenger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Messenger {
    /// The underlying application instance.
    pub app: AppId,
}

impl Messenger {
    /// Registry name.
    pub const NAME: &'static str = "follow-me-messenger";

    /// Components: protocol engine, roster window, and the chat history.
    pub fn components(history_bytes: usize) -> ComponentSet {
        [
            Component::synthetic("im-protocol", ComponentKind::Logic, 150_000),
            Component::synthetic("roster-ui", ComponentKind::Presentation, 70_000),
            Component::synthetic("history", ComponentKind::Data, history_bytes),
        ]
        .into_iter()
        .collect()
    }

    /// Deploys the messenger with an empty conversation.
    ///
    /// # Errors
    ///
    /// Propagates deployment failures.
    pub fn deploy(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        host: HostId,
        profile: UserProfile,
        history_bytes: usize,
    ) -> Result<Messenger, CoreError> {
        let app = Middleware::deploy_app(
            world,
            sim,
            Self::NAME,
            host,
            Self::components(history_bytes),
            profile,
        )?;
        {
            let a = world.app_mut(app)?;
            a.coordinator.register_observer("roster-ui");
        }
        Middleware::update_app_state(world, sim, app, "unread", "0")?;
        Middleware::update_app_state(world, sim, app, "presence", "online")?;
        Ok(Messenger { app })
    }

    /// Records an incoming message (bumps the unread counter and stores
    /// the last line).
    ///
    /// # Errors
    ///
    /// Propagates unknown-app errors.
    pub fn receive(
        world: &mut Middleware,
        sim: &mut Simulator<Middleware>,
        messenger: Messenger,
        from: &str,
        text: &str,
    ) -> Result<u32, CoreError> {
        let unread = Messenger::unread(world, messenger)? + 1;
        Middleware::update_app_state(world, sim, messenger.app, "unread", &unread.to_string())?;
        Middleware::update_app_state(
            world,
            sim,
            messenger.app,
            "last-message",
            &format!("{from}: {text}"),
        )?;
        Ok(unread)
    }

    /// Unread message count.
    ///
    /// # Errors
    ///
    /// Propagates unknown-app errors.
    pub fn unread(world: &Middleware, messenger: Messenger) -> Result<u32, CoreError> {
        Ok(world
            .app(messenger.app)?
            .coordinator
            .state("unread")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0))
    }

    /// The last message line, if any.
    ///
    /// # Errors
    ///
    /// Propagates unknown-app errors.
    pub fn last_message(
        world: &Middleware,
        messenger: Messenger,
    ) -> Result<Option<String>, CoreError> {
        Ok(world
            .app(messenger.app)?
            .coordinator
            .state("last-message")
            .map(str::to_owned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{default_profile, two_space_world};

    #[test]
    fn conversation_state_accumulates() {
        let (mut world, mut sim, hosts) = two_space_world();
        let im = Messenger::deploy(
            &mut world,
            &mut sim,
            hosts.office_pc,
            default_profile(),
            100_000,
        )
        .unwrap();
        Messenger::receive(&mut world, &mut sim, im, "alice", "hello").unwrap();
        Messenger::receive(&mut world, &mut sim, im, "bob", "ping").unwrap();
        assert_eq!(Messenger::unread(&world, im).unwrap(), 2);
        assert_eq!(
            Messenger::last_message(&world, im).unwrap().as_deref(),
            Some("bob: ping")
        );
    }
}
