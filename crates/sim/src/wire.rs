//! The wireless wire protocol (§3/§4): the message kinds exchanged
//! between the mobile computer and the stationary computer, and their
//! control/data classification for message-model accounting. Beyond the
//! paper's four §3 kinds, the fault extension adds the reconnection
//! handshake. (The ARQ transport's acknowledgements and the handoff's
//! backbone legs never enter the protocol state: their owners bill them as
//! counts, see [`LinkState`](crate::LinkState) and
//! [`HandoffState`](crate::HandoffState).)

use mdr_core::RequestWindow;

/// The two ends of the wireless link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The mobile computer (issues reads).
    Mobile,
    /// The stationary computer holding the online database (issues writes).
    Stationary,
}

/// Message-model billing class (§3): data messages carry the item and cost
/// 1; control messages carry only control information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// Carries the data item.
    Data,
    /// Carries only control information (read-requests, delete-requests).
    Control,
}

/// A message on the wireless link.
///
/// The §4 protocol piggybacks the request window on the messages that move
/// replica ownership: the allocating [`DataResponse`](WireMessage::DataResponse)
/// carries the window MC-ward, the deallocating
/// [`DeleteRequest`](WireMessage::DeleteRequest) carries it SC-ward.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WireMessage {
    /// MC → SC: a read the MC could not serve locally.
    ReadRequest,
    /// SC → MC: the data item. `allocate` is the §4 save-the-copy
    /// indication, in which case `window` carries the current request
    /// window and the SC commits to propagating future writes.
    DataResponse {
        /// Version of the item being returned.
        version: u64,
        /// Whether the MC should save the copy (ownership handoff).
        allocate: bool,
        /// The piggybacked request window (present iff `allocate`, for the
        /// window-based policies), shipped in the canonical (`head = 0`)
        /// representation.
        window: Option<RequestWindow>,
    },
    /// SC → MC: a write propagated to the MC's replica.
    WritePropagation {
        /// New version of the item.
        version: u64,
    },
    /// A deallocation indication. MC → SC after a propagated write flips
    /// the window majority (carrying the window back), or SC → MC when the
    /// SC itself knows the copy must drop (SW1's optimized write, T1m's
    /// phase-ending write).
    DeleteRequest {
        /// The piggybacked request window (window-based policies, MC → SC
        /// direction only), shipped in the canonical (`head = 0`)
        /// representation.
        window: Option<RequestWindow>,
    },
    /// MC → SC: announces that the MC is reachable again after a crash
    /// (fault-model extension, see `docs/faults.md`) and reports which
    /// replica state survived, so the SC can re-validate its commitment.
    Reconnect {
        /// The link epoch the MC reconnects under.
        epoch: u64,
        /// The version the MC still caches, if its replica survived in
        /// stable storage; `None` after a volatile crash.
        cached_version: Option<u64>,
    },
    /// SC → MC: closes the reconnection handshake. When the policy keeps
    /// the MC subscribed through crashes (ST2), `refresh` re-ships the item
    /// and the message bills as data; otherwise it is pure control.
    ReconnectAck {
        /// The link epoch being acknowledged.
        epoch: u64,
        /// Fresh item version re-establishing the replica, if any.
        refresh: Option<u64>,
    },
}

impl WireMessage {
    /// Builds the MC → SC read-request control message (§3).
    ///
    /// All `WireMessage` values are built through these constructors so the
    /// wire grammar stays in one place; the workspace lint
    /// (`cargo xtask lint`) forbids literal construction outside this
    /// module.
    pub fn read_request() -> Self {
        WireMessage::ReadRequest
    }

    /// Builds the SC → MC data response (§3). `window` may only travel on an
    /// allocating response — that is the §4 ownership-handoff piggyback.
    ///
    /// # Panics
    ///
    /// Panics if a window is supplied without the allocate indication.
    pub fn data_response(version: u64, allocate: bool, window: Option<RequestWindow>) -> Self {
        assert!(
            allocate || window.is_none(),
            "the request window piggybacks only on allocating responses (§4)"
        );
        WireMessage::DataResponse {
            version,
            allocate,
            window,
        }
    }

    /// Builds the SC → MC write propagation data message (§3).
    pub fn write_propagation(version: u64) -> Self {
        WireMessage::WritePropagation { version }
    }

    /// Builds a delete-request control message (§3/§4). The window is
    /// present exactly in the MC → SC direction of the window policies.
    pub fn delete_request(window: Option<RequestWindow>) -> Self {
        WireMessage::DeleteRequest { window }
    }

    /// Builds the MC → SC reconnection announcement (fault-model extension;
    /// `docs/faults.md`).
    pub fn reconnect(epoch: u64, cached_version: Option<u64>) -> Self {
        WireMessage::Reconnect {
            epoch,
            cached_version,
        }
    }

    /// Builds the SC → MC reconnection acknowledgement; `refresh` re-ships
    /// the item when the SC re-establishes the replica during recovery.
    pub fn reconnect_ack(epoch: u64, refresh: Option<u64>) -> Self {
        WireMessage::ReconnectAck { epoch, refresh }
    }

    /// Billing class of this message (§3). The reconnection handshake is
    /// control traffic unless the acknowledgement re-ships the item.
    pub fn class(&self) -> MessageClass {
        match self {
            WireMessage::ReadRequest
            | WireMessage::DeleteRequest { .. }
            | WireMessage::Reconnect { .. }
            | WireMessage::ReconnectAck { refresh: None, .. } => MessageClass::Control,
            WireMessage::DataResponse { .. }
            | WireMessage::WritePropagation { .. }
            | WireMessage::ReconnectAck {
                refresh: Some(_), ..
            } => MessageClass::Data,
        }
    }

    /// Short display name for logs and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            WireMessage::ReadRequest => "read-request",
            WireMessage::DataResponse { .. } => "data-response",
            WireMessage::WritePropagation { .. } => "write-propagation",
            WireMessage::DeleteRequest { .. } => "delete-request",
            WireMessage::Reconnect { .. } => "reconnect",
            WireMessage::ReconnectAck { .. } => "reconnect-ack",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_section_3() {
        assert_eq!(WireMessage::ReadRequest.class(), MessageClass::Control);
        assert_eq!(
            WireMessage::DeleteRequest { window: None }.class(),
            MessageClass::Control
        );
        assert_eq!(
            WireMessage::DataResponse {
                version: 1,
                allocate: false,
                window: None
            }
            .class(),
            MessageClass::Data
        );
        assert_eq!(
            WireMessage::WritePropagation { version: 2 }.class(),
            MessageClass::Data
        );
        // The reconnection handshake is control unless the ack re-ships the
        // item (ST2 recovery).
        assert_eq!(
            WireMessage::reconnect(1, Some(4)).class(),
            MessageClass::Control
        );
        assert_eq!(
            WireMessage::reconnect_ack(1, None).class(),
            MessageClass::Control
        );
        assert_eq!(
            WireMessage::reconnect_ack(1, Some(4)).class(),
            MessageClass::Data
        );
    }

    #[test]
    fn kinds_are_distinct() {
        use std::collections::HashSet;
        let kinds: HashSet<&str> = [
            WireMessage::ReadRequest.kind(),
            WireMessage::DataResponse {
                version: 0,
                allocate: false,
                window: None,
            }
            .kind(),
            WireMessage::WritePropagation { version: 0 }.kind(),
            WireMessage::DeleteRequest { window: None }.kind(),
            WireMessage::reconnect(0, None).kind(),
            WireMessage::reconnect_ack(0, None).kind(),
        ]
        .into_iter()
        .collect();
        assert_eq!(kinds.len(), 6);
    }
}
