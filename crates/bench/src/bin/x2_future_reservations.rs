//! X2 (extension) — advance reservations over a booking horizon
//! ([Haf 96], the future-reservation companion the paper's conclusion
//! cites).
//!
//! Books prime-time sessions into hourly slots until each slot refuses,
//! showing that (a) windows saturate independently, (b) cancellations
//! restore exactly one seat, and (c) live reservations are untouched by
//! advance bookings.

use nod_bench::{standard_world, Table};
use nod_client::ClientMachine;
use nod_mmdoc::{ClientId, DocumentId};
use nod_qosneg::future::AdvanceBook;
use nod_qosneg::negotiate::NegotiationStatus;
use nod_qosneg::profile::tv_news_profile;
use nod_qosneg::{NegotiationRequest, Session};
use nod_simcore::SimTime;

fn main() {
    println!("X2 — advance (future) reservations over an evening schedule\n");
    let world = standard_world(8, 8, 3, 6);
    let ctx = world.context();
    let session = Session::new(ctx);
    let mut book = AdvanceBook::new(&ctx);
    let profile = tv_news_profile();

    let mut t = Table::new(&["slot", "booked", "refused (FAILEDTRYLATER)"]);
    let mut per_slot: Vec<Vec<_>> = Vec::new();
    for hour in 18..22u64 {
        let start = SimTime::from_secs(hour * 3_600);
        let mut booked = Vec::new();
        let mut refused = 0;
        for i in 0..160u64 {
            let client = ClientMachine::era_workstation(ClientId(i % 4));
            let out = session
                .submit_future(
                    &NegotiationRequest::new(&client, DocumentId(1 + i % 8), &profile)
                        .start_at(start),
                    &mut book,
                )
                .expect("valid requests");
            match out.booking {
                Some(id) => booked.push((ClientId(i % 4), DocumentId(1 + i % 8), id)),
                None => {
                    assert_eq!(out.status, NegotiationStatus::FailedTryLater);
                    refused += 1;
                }
            }
        }
        t.row(&[
            format!("{hour}:00"),
            booked.len().to_string(),
            refused.to_string(),
        ]);
        per_slot.push(booked);
    }
    println!("{}", t.render());

    println!(
        "live system untouched by {} advance bookings: {} active live reservations, \
         farm utilization {:.3}",
        book.bookings(),
        world.network.active_reservations(),
        world.farm.mean_disk_utilization()
    );

    // Cancel one 19:00 booking and rebook the same seat (same client and
    // article — a different client's access link may still be full).
    let slot = &mut per_slot[1];
    if let Some((client_id, doc, id)) = slot.pop() {
        book.cancel(id);
        let client = ClientMachine::era_workstation(client_id);
        let retry = session
            .submit_future(
                &NegotiationRequest::new(&client, doc, &profile)
                    .start_at(SimTime::from_secs(19 * 3_600)),
                &mut book,
            )
            .unwrap();
        println!(
            "cancellation check: freed one 19:00 seat → rebooking {}",
            if retry.booking.is_some() {
                "succeeds ✓"
            } else {
                "FAILS ✗"
            }
        );
    }
}
