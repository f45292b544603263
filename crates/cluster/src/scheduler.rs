//! A YARN-like FIFO container scheduler over the simulated cluster.
//!
//! The platform layer (Hopsworks analogue) submits jobs that request a
//! number of containers, each with CPU/GPU demands and a runtime; the
//! scheduler places containers on nodes with free slots, queues what does
//! not fit, and releases resources as containers finish in virtual time.
//! Used by the hyperparameter-search experiments and by the NRT latency
//! budget of E12 ("processing resources will need to be on demand and
//! scalable").

use crate::events::EventQueue;
use crate::topology::{ClusterSpec, NodeId};
use crate::ClusterError;
use ee_util::timeline::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Resource demand of one container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerRequest {
    /// CPU slots needed.
    pub cpus: u32,
    /// GPU slots needed.
    pub gpus: u32,
    /// How long the container runs once started.
    pub runtime: SimDuration,
}

/// A job: a gang of identical containers. Gang scheduling is all-or-nothing
/// (as distributed training requires all workers up together).
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Caller-chosen identifier.
    pub name: String,
    /// Number of containers.
    pub containers: usize,
    /// Demand of each container.
    pub each: ContainerRequest,
    /// Require all containers to start simultaneously.
    pub gang: bool,
}

/// Where and when a finished job ran.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Virtual time the job was submitted.
    pub submitted: SimTime,
    /// Virtual time all containers had started.
    pub started: SimTime,
    /// Virtual time the last container finished.
    pub finished: SimTime,
    /// Nodes the containers were placed on (one entry per container).
    pub placements: Vec<NodeId>,
}

impl JobReport {
    /// Queueing delay.
    pub fn wait(&self) -> SimDuration {
        self.started.since(self.submitted)
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeFree {
    cpus: u32,
    gpus: u32,
}

enum Event {
    Submit(usize),
    Finish { job: usize, node: NodeId, cpus: u32, gpus: u32 },
}

/// The scheduler: submit jobs, then [`Scheduler::run`] to completion.
pub struct Scheduler {
    spec: ClusterSpec,
    free: Vec<NodeFree>,
    queue: EventQueue<Event>,
    jobs: Vec<JobState>,
    waiting: VecDeque<usize>,
}

struct JobState {
    request: JobRequest,
    submitted: SimTime,
    started: Option<SimTime>,
    remaining: usize,
    placements: Vec<NodeId>,
    finished: Option<SimTime>,
}

impl Scheduler {
    /// A scheduler over an idle cluster.
    pub fn new(spec: ClusterSpec) -> Self {
        let free = spec
            .nodes()
            .map(|_| NodeFree {
                cpus: spec.node.cpu_slots,
                gpus: spec.node.gpu_slots,
            })
            .collect();
        Self {
            spec,
            free,
            queue: EventQueue::new(),
            jobs: Vec::new(),
            waiting: VecDeque::new(),
        }
    }

    /// Submit a job at virtual time `at`. Fails fast if the job could never
    /// fit even on an idle cluster.
    pub fn submit(&mut self, at: SimTime, request: JobRequest) -> Result<usize, ClusterError> {
        let node = &self.spec.node;
        if request.each.cpus > node.cpu_slots || request.each.gpus > node.gpu_slots {
            return Err(ClusterError::Unsatisfiable {
                requested: format!(
                    "container wants {}cpu/{}gpu, node has {}cpu/{}gpu",
                    request.each.cpus, request.each.gpus, node.cpu_slots, node.gpu_slots
                ),
            });
        }
        let cap = self.max_containers_idle(&request.each);
        if request.gang && request.containers > cap {
            return Err(ClusterError::Unsatisfiable {
                requested: format!(
                    "gang of {} containers, idle cluster fits {cap}",
                    request.containers
                ),
            });
        }
        let id = self.jobs.len();
        self.jobs.push(JobState {
            request,
            submitted: at,
            started: None,
            remaining: 0,
            placements: Vec::new(),
            finished: None,
        });
        self.queue.schedule_at(at, Event::Submit(id));
        Ok(id)
    }

    fn max_containers_idle(&self, each: &ContainerRequest) -> usize {
        let per_node_cpu = self
            .spec
            .node
            .cpu_slots
            .checked_div(each.cpus)
            .map(|n| n as usize)
            .unwrap_or(usize::MAX);
        let per_node_gpu = self
            .spec
            .node
            .gpu_slots
            .checked_div(each.gpus)
            .map(|n| n as usize)
            .unwrap_or(usize::MAX);
        per_node_cpu.min(per_node_gpu).saturating_mul(self.spec.num_nodes())
    }

    /// Try to place a waiting job; returns placements if it fits now.
    fn try_place(&mut self, job: usize) -> Option<Vec<NodeId>> {
        let req = &self.jobs[job].request;
        let mut free = self.free.clone();
        let mut placements = Vec::with_capacity(req.containers);
        for _ in 0..req.containers {
            // First-fit over nodes; spread is achieved by decrementing.
            let slot = free.iter().enumerate().find(|(_, f)| {
                f.cpus >= req.each.cpus && f.gpus >= req.each.gpus
            });
            match slot {
                Some((i, _)) => {
                    free[i].cpus -= req.each.cpus;
                    free[i].gpus -= req.each.gpus;
                    placements.push(NodeId(i));
                }
                None => {
                    if req.gang {
                        return None; // all-or-nothing
                    }
                    break;
                }
            }
        }
        if placements.is_empty() {
            return None;
        }
        if self.jobs[job].request.gang && placements.len() < self.jobs[job].request.containers {
            return None;
        }
        self.free = free;
        Some(placements)
    }

    fn start_containers(&mut self, job: usize, placements: Vec<NodeId>, now: SimTime) {
        let runtime = self.jobs[job].request.each.runtime;
        let (cpus, gpus) = (self.jobs[job].request.each.cpus, self.jobs[job].request.each.gpus);
        for &node in &placements {
            self.queue.schedule_at(
                now.advance(runtime),
                Event::Finish {
                    job,
                    node,
                    cpus,
                    gpus,
                },
            );
        }
        let st = &mut self.jobs[job];
        st.remaining += placements.len();
        st.placements.extend(placements);
        if st.placements.len() == st.request.containers {
            st.started.get_or_insert(now);
        }
    }

    /// Drain the FIFO queue as far as resources allow.
    fn pump(&mut self, now: SimTime) {
        while let Some(&job) = self.waiting.front() {
            match self.try_place(job) {
                Some(p) => {
                    self.waiting.pop_front();
                    let st = &self.jobs[job];
                    let missing = st.request.containers - st.placements.len();
                    let p = p.into_iter().take(missing).collect();
                    self.start_containers(job, p, now);
                }
                None => break, // strict FIFO: head-of-line blocks
            }
        }
    }

    /// Run the simulation until all submitted jobs finish; returns reports
    /// in job-id order.
    pub fn run(&mut self) -> Vec<JobReport> {
        while let Some((now, ev)) = self.queue.pop() {
            match ev {
                Event::Submit(job) => {
                    self.waiting.push_back(job);
                    self.pump(now);
                }
                Event::Finish {
                    job,
                    node,
                    cpus,
                    gpus,
                } => {
                    self.free[node.0].cpus += cpus;
                    self.free[node.0].gpus += gpus;
                    let st = &mut self.jobs[job];
                    st.remaining -= 1;
                    if st.remaining == 0 && st.placements.len() == st.request.containers {
                        st.finished = Some(now);
                    }
                    self.pump(now);
                }
            }
        }
        self.jobs
            .iter()
            .map(|j| JobReport {
                name: j.request.name.clone(),
                submitted: j.submitted,
                started: j.started.expect("job started before queue drained"),
                finished: j.finished.expect("job finished before queue drained"),
                placements: j.placements.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(name: &str, containers: usize, cpus: u32, gpus: u32, secs: f64) -> JobRequest {
        JobRequest {
            name: name.into(),
            containers,
            each: ContainerRequest {
                cpus,
                gpus,
                runtime: SimDuration::from_secs(secs),
            },
            gang: true,
        }
    }

    #[test]
    fn single_job_runs_immediately() {
        let mut s = Scheduler::new(ClusterSpec::flat(2));
        s.submit(SimTime::ZERO, req("j", 2, 8, 1, 10.0)).unwrap();
        let r = s.run();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].wait(), SimDuration::ZERO);
        assert_eq!(r[0].placements.len(), 2);
    }

    #[test]
    fn oversized_container_rejected() {
        let mut s = Scheduler::new(ClusterSpec::flat(2));
        assert!(matches!(
            s.submit(SimTime::ZERO, req("big", 1, 999, 0, 1.0)),
            Err(ClusterError::Unsatisfiable { .. })
        ));
    }

    #[test]
    fn oversized_gang_rejected() {
        let mut s = Scheduler::new(ClusterSpec::flat(2));
        // 2 nodes x 1 GPU = 2 GPU containers max; a gang of 3 can never run.
        assert!(s.submit(SimTime::ZERO, req("gang", 3, 1, 1, 1.0)).is_err());
    }

    #[test]
    fn fifo_queueing_when_full() {
        let mut s = Scheduler::new(ClusterSpec::flat(1));
        // Node has 1 GPU; two 1-GPU jobs must serialise.
        s.submit(SimTime::ZERO, req("a", 1, 1, 1, 5.0)).unwrap();
        s.submit(SimTime::ZERO, req("b", 1, 1, 1, 5.0)).unwrap();
        let r = s.run();
        assert_eq!(r[0].wait(), SimDuration::ZERO);
        assert_eq!(r[1].wait(), SimDuration::from_secs(5.0));
        assert_eq!(r[1].finished, SimTime::from_secs(10.0));
    }

    #[test]
    fn parallel_jobs_share_cluster() {
        let mut s = Scheduler::new(ClusterSpec::flat(4));
        s.submit(SimTime::ZERO, req("a", 2, 4, 1, 3.0)).unwrap();
        s.submit(SimTime::ZERO, req("b", 2, 4, 1, 3.0)).unwrap();
        let r = s.run();
        assert_eq!(r[0].wait(), SimDuration::ZERO);
        assert_eq!(r[1].wait(), SimDuration::ZERO, "4 nodes fit both gangs");
    }

    #[test]
    fn cpu_only_jobs_pack_within_node() {
        let mut s = Scheduler::new(ClusterSpec::flat(1));
        // 16 cpu slots: four 4-cpu containers fit at once.
        s.submit(SimTime::ZERO, req("cpu", 4, 4, 0, 2.0)).unwrap();
        let r = s.run();
        assert_eq!(r[0].wait(), SimDuration::ZERO);
        assert!(r[0].placements.iter().all(|n| n.0 == 0));
    }

    #[test]
    fn staggered_submissions() {
        let mut s = Scheduler::new(ClusterSpec::flat(1));
        s.submit(SimTime::ZERO, req("a", 1, 1, 1, 4.0)).unwrap();
        s.submit(SimTime::from_secs(1.0), req("b", 1, 1, 1, 4.0)).unwrap();
        let r = s.run();
        assert_eq!(r[1].started, SimTime::from_secs(4.0));
        assert_eq!(r[1].wait(), SimDuration::from_secs(3.0));
    }

    #[test]
    fn gang_job_waits_for_full_allocation() {
        let mut s = Scheduler::new(ClusterSpec::flat(2));
        // Occupy one GPU; the 2-GPU gang must wait for it.
        s.submit(SimTime::ZERO, req("hold", 1, 1, 1, 6.0)).unwrap();
        s.submit(SimTime::ZERO, req("gang", 2, 1, 1, 1.0)).unwrap();
        let r = s.run();
        assert_eq!(r[1].started, SimTime::from_secs(6.0), "gang is all-or-nothing");
    }
}
