//! Multiplexing independent tenant arrival streams into one fleet stream.
//!
//! A fleet serves many tenants at once — each with its own arrival
//! process, resolution mix and SLO policy. [`LazyMerge`] merges per-tenant
//! streams into a single globally-ordered stream with fresh sequential ids
//! and the originating stream index stamped as the request's tenant; the
//! fleet router consumes that stream and makes routing decisions per
//! *arrival*, blind to which tenant produced it. Offline callers collect
//! the merge over pre-generated `Vec`s; the live traffic frontend drives
//! it lazily over generators, so both paths share one ordering contract:
//! (arrival time, stream index, intra-stream position). The merge takes
//! requests with their prompt ([`GeneratedRequest`]) or without it
//! ([`BareRequest`], the streamed path, which reads no prompt).

use tetriserve_simulator::trace::TenantId;

use crate::gen::{BareRequest, GeneratedRequest};

/// A request [`LazyMerge`] can order and stamp.
pub trait MergeItem: std::fmt::Debug {
    /// Arrival time in seconds: the merge key.
    fn arrival_s(&self) -> f64;

    /// Stamps the merged-order id and the originating stream's tenant.
    fn stamp(&mut self, id: u64, tenant: TenantId);
}

impl MergeItem for GeneratedRequest {
    fn arrival_s(&self) -> f64 {
        self.arrival_s
    }

    fn stamp(&mut self, id: u64, tenant: TenantId) {
        self.id = id;
        self.tenant = tenant;
    }
}

impl MergeItem for BareRequest {
    fn arrival_s(&self) -> f64 {
        self.arrival_s
    }

    fn stamp(&mut self, id: u64, tenant: TenantId) {
        self.id = id;
        self.tenant = tenant;
    }
}

/// One per-stream cursor inside [`LazyMerge`].
#[derive(Debug)]
struct StreamHead<I: Iterator> {
    iter: I,
    /// The stream's next undelivered request, if any.
    head: Option<I::Item>,
    /// Arrival time of the last delivered request (sortedness check).
    last_arrival: f64,
}

/// A lazy k-way merge of per-tenant request streams, ordered by
/// `(arrival time, stream index, intra-stream position)` — a fully
/// deterministic key. Ids are re-assigned sequentially in merged order and
/// each request's `tenant` is stamped with its originating stream index, so
/// tenant attribution survives the merge.
///
/// Laziness is the point: the live traffic frontend wraps unbounded
/// per-tenant generators and pulls one merged arrival at a time as the
/// simulation advances, holding only one buffered request per stream.
#[derive(Debug)]
pub struct LazyMerge<I: Iterator>
where
    I::Item: MergeItem,
{
    streams: Vec<StreamHead<I>>,
    next_id: u64,
}

/// Builds a [`LazyMerge`] over per-tenant streams; stream `i` becomes
/// `TenantId(i)` on every request it contributes.
///
/// Each stream must yield requests in non-decreasing arrival order; the
/// merge panics when it observes a violation (lazily, at the offending
/// pull).
pub fn merge_streams<I>(streams: Vec<I>) -> LazyMerge<I>
where
    I: Iterator,
    I::Item: MergeItem,
{
    let streams = streams
        .into_iter()
        .map(|mut iter| {
            let head = iter.next();
            StreamHead {
                iter,
                head,
                last_arrival: f64::NEG_INFINITY,
            }
        })
        .collect();
    LazyMerge {
        streams,
        next_id: 0,
    }
}

impl<I: Iterator> Iterator for LazyMerge<I>
where
    I::Item: MergeItem,
{
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        // Argmin over the stream heads by (arrival, stream index). The
        // intra-stream position tie-break is implicit: a stream only ever
        // exposes its earliest undelivered request, so equal-time requests
        // from one stream leave in generation order.
        let winner = self
            .streams
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.head.as_ref().map(|r| (i, r.arrival_s())))
            .min_by(|(ai, at), (bi, bt)| at.total_cmp(bt).then(ai.cmp(bi)))
            .map(|(i, _)| i)?;
        let slot = &mut self.streams[winner];
        let mut req = slot.head.take().expect("winner has a head");
        slot.head = slot.iter.next();
        let arrival_s = req.arrival_s();
        // NaN fails every `>=`, so a poisoned arrival trips this too.
        assert!(
            arrival_s >= slot.last_arrival,
            "tenant stream {winner} is not sorted by arrival time \
             ({arrival_s} after {})",
            slot.last_arrival
        );
        slot.last_arrival = arrival_s;
        req.stamp(
            self.next_id,
            TenantId(u32::try_from(winner).expect("stream count fits u32")),
        );
        self.next_id += 1;
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::PoissonProcess;
    use crate::gen::TraceGen;
    use crate::mix::ResolutionMix;
    use crate::prompt::{Embedding, Prompt, PromptLibrary};
    use crate::slo::SloPolicy;
    use tetriserve_costmodel::Resolution;

    fn req(arrival_s: f64, res: Resolution) -> GeneratedRequest {
        GeneratedRequest {
            id: 0,
            tenant: TenantId::UNTAGGED,
            arrival_s,
            resolution: res,
            deadline_s: arrival_s + 5.0,
            prompt: Prompt {
                id: 0,
                cluster: 0,
                embedding: Embedding::new(vec![1.0]),
            },
            stages: tetriserve_costmodel::StageProfile::FLAT,
        }
    }

    #[test]
    fn merge_orders_by_arrival_and_reassigns_ids() {
        let a = vec![req(0.1, Resolution::R256), req(2.0, Resolution::R512)];
        let b = vec![req(0.5, Resolution::R1024), req(1.5, Resolution::R2048)];
        let merged: Vec<_> = merge_streams(vec![a.into_iter(), b.into_iter()]).collect();
        let arrivals: Vec<f64> = merged.iter().map(|r| r.arrival_s).collect();
        assert_eq!(arrivals, vec![0.1, 0.5, 1.5, 2.0]);
        let ids: Vec<u64> = merged.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(merged[2].resolution, Resolution::R2048);
    }

    #[test]
    fn simultaneous_arrivals_break_ties_by_tenant() {
        let a = vec![req(1.0, Resolution::R256)];
        let b = vec![req(1.0, Resolution::R2048)];
        let merged: Vec<_> = merge_streams(vec![a.into_iter(), b.into_iter()]).collect();
        assert_eq!(merged[0].resolution, Resolution::R256, "tenant 0 first");
        assert_eq!(merged[1].resolution, Resolution::R2048);
    }

    #[test]
    fn empty_streams_are_fine() {
        assert!(
            merge_streams(Vec::<std::vec::IntoIter<GeneratedRequest>>::new())
                .next()
                .is_none()
        );
        let only = vec![req(0.3, Resolution::R512)];
        let merged: Vec<_> = merge_streams(vec![
            vec![].into_iter(),
            only.into_iter(),
            vec![].into_iter(),
        ])
        .collect();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].id, 0);
    }

    #[test]
    fn generated_tenant_streams_merge_deterministically() {
        let gen_stream = |seed: u64, rate: f64, n: usize| {
            TraceGen::new(
                PoissonProcess::new(rate),
                ResolutionMix::uniform(),
                SloPolicy::paper_targets(),
                PromptLibrary::diffusiondb_like(seed),
                seed,
            )
            .generate(n)
            .into_iter()
        };
        let run = || {
            merge_streams(vec![
                gen_stream(1, 12.0, 40),
                gen_stream(2, 6.0, 20),
                gen_stream(3, 20.0, 60),
            ])
            .collect::<Vec<_>>()
        };
        let x = run();
        let y = run();
        assert_eq!(x.len(), 120);
        assert_eq!(x, y, "multiplexing is deterministic");
        assert!(x.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(x.iter().enumerate().all(|(i, r)| r.id == i as u64));
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn unsorted_stream_rejected() {
        let stream = vec![req(2.0, Resolution::R256), req(1.0, Resolution::R256)];
        merge_streams(vec![stream.into_iter()]).for_each(drop);
    }

    #[test]
    fn merge_preserves_tenant_attribution() {
        let a = vec![req(0.1, Resolution::R256), req(2.0, Resolution::R512)];
        let b = vec![req(0.5, Resolution::R1024)];
        let merged: Vec<_> = merge_streams(vec![a.into_iter(), b.into_iter()]).collect();
        let tenants: Vec<u32> = merged.iter().map(|r| r.tenant.0).collect();
        assert_eq!(tenants, vec![0, 1, 0]);
        assert!(merged.iter().all(|r| !r.tenant.is_untagged()));
    }

    #[test]
    fn lazy_merge_buffers_one_request_per_stream() {
        // An infinite (cycling) stream would hang an eager merge; the lazy
        // merge pulls exactly as many requests as the consumer asks for.
        let unbounded = (0..).map(|i| req(i as f64, Resolution::R256));
        let first3: Vec<GeneratedRequest> = merge_streams(vec![unbounded]).take(3).collect();
        assert_eq!(first3.len(), 3);
        assert_eq!(first3[2].arrival_s, 2.0);
        assert!(first3.iter().all(|r| r.tenant == TenantId(0)));
    }
}
