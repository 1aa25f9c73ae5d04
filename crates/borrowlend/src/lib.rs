//! # pti-borrowlend — the borrow/lend abstraction (paper Section 8)
//!
//! "Lenders can lend resources to borrowers via specific criteria. A
//! possible criterion is type conformance, for a type `T` with which the
//! lent resource's type `T'` must conform."
//!
//! A [`Market`] is a group of peers where lenders *export* live objects
//! (pass-by-reference, via [`pti_remoting`]) and borrowers ask for "any
//! resource whose type conforms to this type of interest". Matching is
//! implicit structural conformance on the borrower's side; borrowed
//! resources are invoked through the conformance-translating remote
//! proxy and returned when done.

#![warn(missing_docs)]

use std::collections::HashMap;

use pti_conformance::ConformanceConfig;
use pti_metamodel::{Assembly, ObjHandle, TypeDescription, Value};
use pti_net::{NetConfig, PeerId, ReactorNet, Transport};
use pti_remoting::{RemoteProxy, RemotingFabric};
use pti_transport::{Peer, Result, Swarm, TransportError};

/// A lending currently registered in the market.
#[derive(Debug, Clone)]
pub struct Lending {
    /// Unique lending id.
    pub id: u64,
    /// The peer owning the resource.
    pub lender: PeerId,
    /// The wire reference to the resource.
    pub remote: pti_remoting::RemoteRef,
    /// Borrower currently holding the resource, if any.
    pub borrowed_by: Option<PeerId>,
}

/// A successfully borrowed resource.
#[derive(Debug, Clone)]
pub struct Borrowed {
    /// The lending this borrow came from.
    pub lending_id: u64,
    /// Proxy exposing the borrower's type of interest over the remote
    /// resource.
    pub proxy: RemoteProxy,
}

/// A borrow/lend market over a swarm of peers (any transport).
#[derive(Debug)]
pub struct Market<T: Transport = ReactorNet> {
    swarm: Swarm<T>,
    fabric: RemotingFabric,
    lendings: HashMap<u64, Lending>,
    next_id: u64,
}

impl Market<ReactorNet> {
    /// Creates an empty market over a fresh reactor fabric that prices
    /// messages with the given link parameters.
    pub fn new(config: NetConfig) -> Market {
        Market::over(Swarm::new(config))
    }
}

impl<T: Transport> Market<T> {
    /// Creates an empty market over an existing swarm.
    pub fn over(swarm: Swarm<T>) -> Market<T> {
        Market {
            swarm,
            fabric: RemotingFabric::new(),
            lendings: HashMap::new(),
            next_id: 0,
        }
    }

    /// Adds a peer to the market.
    pub fn add_peer(&mut self, config: ConformanceConfig) -> PeerId {
        self.swarm.add_peer(config)
    }

    /// Mutable access to a peer.
    pub fn peer_mut(&mut self, id: PeerId) -> &mut Peer {
        self.swarm.peer_mut(id)
    }

    /// Immutable access to a peer.
    pub fn peer(&self, id: PeerId) -> &Peer {
        self.swarm.peer(id)
    }

    /// The underlying swarm.
    pub fn swarm(&self) -> &Swarm<T> {
        &self.swarm
    }

    /// Publishes an assembly at a peer (types must be published before
    /// their instances can be lent).
    ///
    /// # Errors
    /// Installation conflicts.
    pub fn publish(&mut self, peer: PeerId, assembly: Assembly) -> Result<()> {
        self.swarm.publish(peer, assembly)
    }

    /// Registers a live object as lendable. Returns the lending id.
    ///
    /// # Errors
    /// Dangling handles or unpublished types.
    pub fn lend(&mut self, lender: PeerId, resource: ObjHandle) -> Result<u64> {
        let remote = self.fabric.export(&self.swarm, lender, resource)?;
        self.next_id += 1;
        let id = self.next_id;
        self.lendings.insert(
            id,
            Lending {
                id,
                lender,
                remote,
                borrowed_by: None,
            },
        );
        Ok(id)
    }

    /// All current lendings (available and borrowed).
    pub fn lendings(&self) -> Vec<&Lending> {
        let mut v: Vec<&Lending> = self.lendings.values().collect();
        v.sort_by_key(|l| l.id);
        v
    }

    /// Tries to borrow *any* available resource whose type implicitly
    /// structurally conforms to `interest`. Offers are tried in lending
    /// order; the first reference that passes the borrower's conformance
    /// check wins.
    ///
    /// Returns `None` when nothing conforms.
    ///
    /// # Errors
    /// Transport failures while negotiating.
    pub fn borrow(
        &mut self,
        borrower: PeerId,
        interest: &TypeDescription,
    ) -> Result<Option<Borrowed>> {
        // The borrower's conformance criterion.
        self.swarm.peer_mut(borrower).subscribe(interest.clone());
        let candidates: Vec<(u64, PeerId)> = self
            .lendings()
            .iter()
            .filter(|l| l.borrowed_by.is_none() && l.lender != borrower)
            .map(|l| (l.id, l.lender))
            .collect();
        for (id, lender) in candidates {
            let rref = self.lendings[&id].remote.clone();
            self.fabric
                .offer(&mut self.swarm, lender, borrower, &rref)?;
            self.fabric.run(&mut self.swarm)?;
            let mut proxies = self.fabric.take_proxies(borrower);
            let _ = self.fabric.take_rejected(borrower);
            if let Some(proxy) = proxies.pop() {
                self.lendings.get_mut(&id).expect("exists").borrowed_by = Some(borrower);
                return Ok(Some(Borrowed {
                    lending_id: id,
                    proxy,
                }));
            }
        }
        Ok(None)
    }

    /// Invokes a method on a borrowed resource (synchronous remote call
    /// through the conformance-translating proxy).
    ///
    /// # Errors
    /// Out-of-contract methods or transport/dispatch failures.
    pub fn invoke(
        &mut self,
        borrower: PeerId,
        borrowed: &Borrowed,
        method: &str,
        args: &[Value],
    ) -> Result<Value> {
        self.fabric
            .invoke(&mut self.swarm, borrower, &borrowed.proxy, method, args)
    }

    /// Returns a borrowed resource to the market.
    ///
    /// # Errors
    /// Unknown lending id.
    pub fn give_back(&mut self, lending_id: u64) -> Result<()> {
        let l = self
            .lendings
            .get_mut(&lending_id)
            .ok_or_else(|| TransportError::Protocol(format!("unknown lending #{lending_id}")))?;
        l.borrowed_by = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pti_metamodel::{bodies, primitives, ParamDef, TypeDef};

    fn printer_assembly(salt: &str, print_name: &str) -> (Assembly, TypeDef) {
        let def = TypeDef::class("Printer", salt)
            .field("queue", primitives::INT32)
            .method(
                print_name,
                vec![ParamDef::new("doc", primitives::STRING)],
                primitives::INT32,
            )
            .ctor(vec![])
            .build();
        let g = def.guid;
        let asm = Assembly::builder(format!("printer-{salt}"))
            .ty(def.clone())
            .body(
                g,
                print_name,
                1,
                std::sync::Arc::new(|rt: &mut pti_metamodel::Runtime, recv, args: &[Value]| {
                    let h = recv.as_obj()?;
                    let q = rt.get_field(h, "queue")?.as_i32()? + 1;
                    rt.set_field(h, "queue", Value::I32(q))?;
                    let _doc = args[0].as_str()?;
                    Ok(Value::I32(q))
                }),
            )
            .ctor_body(g, 0, bodies::ctor_assign(&[]))
            .build();
        (asm, def)
    }

    fn market_with_printer() -> (Market, PeerId, PeerId, u64) {
        let mut market = Market::new(NetConfig::default());
        let lender = market.add_peer(ConformanceConfig::pragmatic());
        let borrower = market.add_peer(ConformanceConfig::pragmatic());
        let (asm, _) = printer_assembly("lender", "printDocument");
        market.publish(lender, asm).unwrap();
        let h = market
            .peer_mut(lender)
            .runtime
            .instantiate(&"Printer".into(), &[])
            .unwrap();
        let id = market.lend(lender, h).unwrap();
        (market, lender, borrower, id)
    }

    #[test]
    fn borrow_by_conformance_and_invoke() {
        let (mut market, _lender, borrower, id) = market_with_printer();
        // Borrower's criterion: its own Printer view with a shorter name.
        let (_, want) = printer_assembly("borrower", "print");
        let borrowed = market
            .borrow(borrower, &TypeDescription::from_def(&want))
            .unwrap()
            .expect("a conforming printer is available");
        assert_eq!(borrowed.lending_id, id);
        // Invoke under the borrower's contract name.
        let q = market
            .invoke(borrower, &borrowed, "print", &[Value::from("report.pdf")])
            .unwrap();
        assert_eq!(q.as_i32().unwrap(), 1);
        let q2 = market
            .invoke(borrower, &borrowed, "print", &[Value::from("again.pdf")])
            .unwrap();
        assert_eq!(q2.as_i32().unwrap(), 2, "state lives on the lender");
    }

    #[test]
    fn nothing_conforming_returns_none() {
        let (mut market, _lender, borrower, _) = market_with_printer();
        let scanner = TypeDef::class("Scanner", "b")
            .method("scan", vec![], primitives::STRING)
            .build();
        let got = market
            .borrow(borrower, &TypeDescription::from_def(&scanner))
            .unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn borrowed_resource_is_exclusive_until_returned() {
        let (mut market, _lender, borrower, id) = market_with_printer();
        let third = market.add_peer(ConformanceConfig::pragmatic());
        let (_, want) = printer_assembly("third", "print");
        let desc = TypeDescription::from_def(&want);
        let first = market.borrow(borrower, &desc).unwrap();
        assert!(first.is_some());
        assert!(
            market.borrow(third, &desc).unwrap().is_none(),
            "already lent out"
        );
        market.give_back(id).unwrap();
        assert!(
            market.borrow(third, &desc).unwrap().is_some(),
            "available again"
        );
    }

    #[test]
    fn lending_listing_tracks_state() {
        let (mut market, lender, borrower, id) = market_with_printer();
        assert_eq!(market.lendings().len(), 1);
        assert_eq!(market.lendings()[0].lender, lender);
        assert!(market.lendings()[0].borrowed_by.is_none());
        let (_, want) = printer_assembly("x", "print");
        market
            .borrow(borrower, &TypeDescription::from_def(&want))
            .unwrap()
            .unwrap();
        assert_eq!(market.lendings()[0].borrowed_by, Some(borrower));
        market.give_back(id).unwrap();
        assert!(market.lendings()[0].borrowed_by.is_none());
        assert!(market.give_back(999).is_err());
    }

    #[test]
    fn own_resources_are_not_offered_back() {
        let (mut market, lender, _borrower, _) = market_with_printer();
        let (_, want) = printer_assembly("self", "print");
        let got = market
            .borrow(lender, &TypeDescription::from_def(&want))
            .unwrap();
        assert!(got.is_none(), "a lender does not borrow its own resource");
    }
}
