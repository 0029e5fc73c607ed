//! IPFW-style firewall with linear rule evaluation: the reference walk.
//!
//! P2PLab configures the emulated topology as IPFW rules on every physical node: two per hosted
//! virtual node (incoming and outgoing access-link pipes) plus one per (source group, destination
//! group) latency pipe. IPFW evaluates rules **linearly**, which the paper identifies as the main
//! scalability limit (Figure 6: ping RTT grows linearly with the number of rules). The walk here
//! keeps both behaviours: packets are matched against rules in order, every rule examined costs
//! a fixed amount of added latency, and — like dummynet with `net.inet.ip.fw.one_pass=0` — a
//! packet that matched a pipe rule continues down the rule list, so it can traverse both its
//! access-link pipe and a group-latency pipe.
//!
//! No run walks rules. A machine of the emulated network is a rule count, and
//! `Network::classify` (in [`crate::network`]) computes a packet's path from the two nodes'
//! records in closed form. [`Firewall::classify`] is what that closed form stands for: the
//! network's tests build a twin firewall from the rules P2PLab's scripts would install and
//! compare every packet's pipes and cost with its walk, and the benchmark probe times the walk
//! at 64 and 4,096 rules.

use crate::addr::{Subnet, VirtAddr};
use crate::pipe::PipeId;
use p2plab_sim::SimDuration;
use std::ops::Deref;

/// Direction of a packet relative to the physical node evaluating the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Leaving the physical node.
    Out,
    /// Entering the physical node.
    In,
}

/// What a matching rule does with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleAction {
    /// Send the packet through a dummynet pipe, then keep evaluating rules.
    Pipe(PipeId),
    /// Accept the packet and stop evaluating.
    Allow,
    /// Drop the packet and stop evaluating.
    Deny,
}

/// One firewall rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Source subnet the rule matches.
    pub src: Subnet,
    /// Destination subnet the rule matches.
    pub dst: Subnet,
    /// Direction the rule matches, or `None` for both.
    pub direction: Option<Direction>,
    /// Action on match.
    pub action: RuleAction,
}

impl Rule {
    /// A rule sending traffic from `src` to `dst` (in the given direction) through `pipe`.
    pub fn pipe(src: Subnet, dst: Subnet, direction: Direction, pipe: PipeId) -> Rule {
        Rule {
            src,
            dst,
            direction: Some(direction),
            action: RuleAction::Pipe(pipe),
        }
    }

    /// A rule that never matches any real packet; used to reproduce the Figure 6 rule-count
    /// scaling experiment (the paper inserts large numbers of rules the ping traffic must scan).
    pub fn dummy() -> Rule {
        // 240.0.0.0/4 is reserved space never assigned to virtual nodes.
        let unused = Subnet::new(VirtAddr::new(240, 0, 0, 0), 4);
        Rule {
            src: unused,
            dst: unused,
            direction: None,
            action: RuleAction::Allow,
        }
    }

    fn matches(&self, src: VirtAddr, dst: VirtAddr, direction: Direction) -> bool {
        if let Some(d) = self.direction {
            if d != direction {
                return false;
            }
        }
        self.src.contains(src) && self.dst.contains(dst)
    }
}

/// A small inline list of pipes a packet traverses. Real classifications are one or two pipes
/// (access link, plus at most a group-latency pipe), so the common case lives on the stack and
/// a walk allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct PipeList {
    len: u8,
    inline: [PipeId; 4],
    /// Overflow for pathological rule sets with more than four matching pipe rules; when used,
    /// it holds the *entire* list (inline entries are copied over on the first spill).
    spill: Vec<PipeId>,
}

impl Default for PipeList {
    fn default() -> Self {
        PipeList {
            len: 0,
            inline: [PipeId(0); 4],
            spill: Vec::new(),
        }
    }
}

impl PipeList {
    fn push(&mut self, pipe: PipeId) {
        if self.spill.is_empty() && (self.len as usize) < self.inline.len() {
            self.inline[self.len as usize] = pipe;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill
                    .extend_from_slice(&self.inline[..self.len as usize]);
            }
            self.spill.push(pipe);
        }
    }
}

impl Deref for PipeList {
    type Target = [PipeId];
    fn deref(&self) -> &[PipeId] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

impl<'a> IntoIterator for &'a PipeList {
    type Item = PipeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, PipeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter().copied()
    }
}

/// Result of classifying one packet against a firewall.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Pipes the packet must traverse, in rule order.
    pub pipes: PipeList,
    /// Whether the packet is ultimately accepted (false if a Deny rule matched).
    pub accepted: bool,
    /// Number of rules examined (the linear-evaluation cost driver).
    pub rules_examined: usize,
    /// Latency added by rule evaluation itself.
    pub evaluation_cost: SimDuration,
}

/// An ordered list of rules evaluated linearly, as IPFW does.
#[derive(Debug, Clone)]
pub struct Firewall {
    rules: Vec<Rule>,
    per_rule_cost: SimDuration,
}

impl Firewall {
    /// Creates an empty firewall. `per_rule_cost` is the latency each examined rule adds
    /// (IPFW walks the list for every packet).
    pub fn new(per_rule_cost: SimDuration) -> Firewall {
        Firewall {
            rules: Vec::new(),
            per_rule_cost,
        }
    }

    /// Appends a rule and returns its index.
    pub fn add_rule(&mut self, rule: Rule) -> usize {
        self.rules.push(rule);
        self.rules.len() - 1
    }

    /// Appends `count` never-matching rules (Figure 6 experiment).
    pub fn add_dummy_rules(&mut self, count: usize) {
        self.rules.extend(std::iter::repeat_n(Rule::dummy(), count));
    }

    /// Number of configured rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Classifies a packet: walks the rule list in order, collecting every matching pipe, until
    /// a terminal Allow/Deny rule matches or the list ends (packets are accepted by default, as
    /// P2PLab's generated rule sets end with an implicit allow).
    pub fn classify(&self, src: VirtAddr, dst: VirtAddr, direction: Direction) -> Classification {
        let mut pipes = PipeList::default();
        let mut rules_examined = 0;
        let mut accepted = true;
        for rule in &self.rules {
            rules_examined += 1;
            if !rule.matches(src, dst, direction) {
                continue;
            }
            match rule.action {
                RuleAction::Pipe(p) => pipes.push(p),
                RuleAction::Allow => break,
                RuleAction::Deny => {
                    accepted = false;
                    break;
                }
            }
        }
        Classification {
            pipes,
            accepted,
            rules_examined,
            evaluation_cost: self.per_rule_cost * rules_examined as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subnet(s: &str) -> Subnet {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> VirtAddr {
        s.parse().unwrap()
    }

    fn paper_firewall() -> Firewall {
        // The rule set of the physical node hosting 10.1.3.207 in the paper's Figure 7 example.
        let mut fw = Firewall::new(SimDuration::from_nanos(100));
        fw.add_rule(Rule::pipe(
            subnet("10.1.3.207/32"),
            Subnet::any(),
            Direction::Out,
            PipeId(0),
        ));
        fw.add_rule(Rule::pipe(
            Subnet::any(),
            subnet("10.1.3.207/32"),
            Direction::In,
            PipeId(1),
        ));
        fw.add_rule(Rule::pipe(
            subnet("10.1.3.0/24"),
            subnet("10.1.1.0/24"),
            Direction::Out,
            PipeId(2),
        ));
        fw.add_rule(Rule::pipe(
            subnet("10.1.3.0/24"),
            subnet("10.1.2.0/24"),
            Direction::Out,
            PipeId(3),
        ));
        fw.add_rule(Rule::pipe(
            subnet("10.1.0.0/16"),
            subnet("10.2.0.0/16"),
            Direction::Out,
            PipeId(4),
        ));
        fw.add_rule(Rule::pipe(
            subnet("10.1.0.0/16"),
            subnet("10.3.0.0/16"),
            Direction::Out,
            PipeId(5),
        ));
        fw
    }

    #[test]
    fn packet_traverses_access_and_latency_pipes() {
        let fw = paper_firewall();
        // 10.1.3.207 -> 10.2.2.117: outgoing access pipe + 10.1/16 -> 10.2/16 latency pipe.
        let c = fw.classify(addr("10.1.3.207"), addr("10.2.2.117"), Direction::Out);
        assert_eq!(&c.pipes[..], [PipeId(0), PipeId(4)]);
        assert!(c.accepted);
        assert_eq!(c.rules_examined, 6);
    }

    #[test]
    fn incoming_packet_only_hits_download_pipe() {
        let fw = paper_firewall();
        let c = fw.classify(addr("10.2.2.117"), addr("10.1.3.207"), Direction::In);
        assert_eq!(&c.pipes[..], [PipeId(1)]);
    }

    #[test]
    fn intra_group_traffic_hits_local_latency_rule() {
        let fw = paper_firewall();
        let c = fw.classify(addr("10.1.3.207"), addr("10.1.1.5"), Direction::Out);
        assert_eq!(&c.pipes[..], [PipeId(0), PipeId(2)]);
    }

    #[test]
    fn allow_rule_terminates_evaluation() {
        let mut fw = Firewall::new(SimDuration::from_nanos(100));
        fw.add_rule(Rule {
            src: Subnet::any(),
            dst: Subnet::any(),
            direction: None,
            action: RuleAction::Allow,
        });
        fw.add_rule(Rule::pipe(
            Subnet::any(),
            Subnet::any(),
            Direction::Out,
            PipeId(9),
        ));
        let c = fw.classify(addr("10.0.0.1"), addr("10.0.0.2"), Direction::Out);
        assert!(c.pipes.is_empty());
        assert_eq!(c.rules_examined, 1);
    }

    #[test]
    fn deny_rule_rejects() {
        let mut fw = Firewall::new(SimDuration::from_nanos(100));
        fw.add_rule(Rule {
            src: subnet("10.9.0.0/16"),
            dst: Subnet::any(),
            direction: None,
            action: RuleAction::Deny,
        });
        let c = fw.classify(addr("10.9.1.1"), addr("10.0.0.2"), Direction::Out);
        assert!(!c.accepted);
    }

    #[test]
    fn evaluation_cost_scales_linearly_with_rule_count() {
        // The mechanism behind Figure 6.
        let mut fw = Firewall::new(SimDuration::from_nanos(100));
        fw.add_dummy_rules(10_000);
        fw.add_rule(Rule::pipe(
            Subnet::any(),
            Subnet::any(),
            Direction::Out,
            PipeId(0),
        ));
        let c = fw.classify(addr("10.0.0.1"), addr("10.0.0.2"), Direction::Out);
        assert_eq!(c.rules_examined, 10_001);
        assert_eq!(c.evaluation_cost, SimDuration::from_nanos(100) * 10_001);

        let mut small = Firewall::new(SimDuration::from_nanos(100));
        small.add_rule(Rule::pipe(
            Subnet::any(),
            Subnet::any(),
            Direction::Out,
            PipeId(0),
        ));
        let c_small = small.classify(addr("10.0.0.1"), addr("10.0.0.2"), Direction::Out);
        assert!(c.evaluation_cost > c_small.evaluation_cost * 5_000);
    }

    #[test]
    fn dummy_rules_never_match_vnode_traffic() {
        let mut fw = Firewall::new(SimDuration::ZERO);
        fw.add_dummy_rules(100);
        let c = fw.classify(addr("10.1.1.1"), addr("10.2.2.2"), Direction::Out);
        assert!(c.pipes.is_empty());
        assert!(c.accepted);
        assert_eq!(c.rules_examined, 100);
    }

    #[test]
    fn directions_classify_independently() {
        let fw = paper_firewall();
        let out = fw.classify(addr("10.1.3.207"), addr("10.2.2.117"), Direction::Out);
        let inward = fw.classify(addr("10.1.3.207"), addr("10.2.2.117"), Direction::In);
        assert_ne!(&out.pipes[..], &inward.pipes[..]);
        // And hits return the same answers.
        assert_eq!(
            fw.classify(addr("10.1.3.207"), addr("10.2.2.117"), Direction::Out),
            out
        );
        assert_eq!(
            fw.classify(addr("10.1.3.207"), addr("10.2.2.117"), Direction::In),
            inward
        );
    }

    #[test]
    fn pipe_list_spills_past_four_entries_in_order() {
        let mut fw = Firewall::new(SimDuration::ZERO);
        for i in 0..7 {
            fw.add_rule(Rule::pipe(
                Subnet::any(),
                Subnet::any(),
                Direction::Out,
                PipeId(i),
            ));
        }
        let c = fw.classify(addr("10.0.0.1"), addr("10.0.0.2"), Direction::Out);
        let expected: Vec<PipeId> = (0..7).map(PipeId).collect();
        assert_eq!(&c.pipes[..], expected.as_slice());
        // A hit reproduces the spilled list too.
        let again = fw.classify(addr("10.0.0.1"), addr("10.0.0.2"), Direction::Out);
        assert_eq!(&again.pipes[..], expected.as_slice());
    }
}
