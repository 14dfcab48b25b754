//! A persistent ordered map: an AVL tree whose nodes are shared between
//! copies.
//!
//! Cloning a map is O(1). An insert or a remove copies only the nodes
//! on the path from the root to the key, O(log n), and leaves every
//! other copy as it was. The analyzer forks its environment once per
//! branch arm, so an arm costs what it changes rather than the size of
//! the whole program state.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::rc::Rc;

type Link<K, V> = Option<Rc<Node<K, V>>>;

struct Node<K, V> {
    /// Shared with every copy of the node, so a path copy clones no key
    /// or value.
    entry: Rc<(K, V)>,
    height: u8,
    left: Link<K, V>,
    right: Link<K, V>,
}

/// A persistent ordered map from `K` to `V`.
pub(crate) struct PMap<K, V> {
    root: Link<K, V>,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None }
    }
}

impl<K: Ord, V> PMap<K, V> {
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut link = &self.root;
        while let Some(node) = link {
            match key.cmp(node.entry.0.borrow()) {
                Ordering::Less => link = &node.left,
                Ordering::Greater => link = &node.right,
                Ordering::Equal => return Some(&node.entry.1),
            }
        }
        None
    }

    pub(crate) fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Inserts or replaces the entry for `key`.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.root = Some(insert(&self.root, Rc::new((key, value))));
    }

    /// Removes the entry for `key`; a missing key copies nothing.
    pub(crate) fn remove<Q>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if let Some(root) = remove(&self.root, key) {
            self.root = root;
        }
    }

    /// The entries in ascending key order.
    pub(crate) fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        iter.descend(&self.root);
        iter
    }
}

/// In-order iterator over a [`PMap`].
pub(crate) struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn descend(&mut self, mut link: &'a Link<K, V>) {
        while let Some(node) = link {
            self.stack.push(node);
            link = &node.left;
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        self.descend(&node.right);
        Some((&node.entry.0, &node.entry.1))
    }
}

/// A persistent ordered set: a [`PMap`] to `()`.
#[derive(Clone, Default)]
pub(crate) struct PSet<K>(PMap<K, ()>);

impl<K: Ord> PSet<K> {
    pub(crate) fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.0.contains_key(key)
    }

    /// Adds `key`; a key already present copies nothing.
    pub(crate) fn insert(&mut self, key: K) {
        if !self.contains(&key) {
            self.0.insert(key, ());
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &K> {
        self.0.iter().map(|(k, ())| k)
    }
}

fn height<K, V>(link: &Link<K, V>) -> u8 {
    link.as_ref().map_or(0, |n| n.height)
}

fn node<K, V>(entry: Rc<(K, V)>, left: Link<K, V>, right: Link<K, V>) -> Rc<Node<K, V>> {
    Rc::new(Node {
        height: 1 + height(&left).max(height(&right)),
        entry,
        left,
        right,
    })
}

/// A node over two subtrees whose heights differ by at most two,
/// rotated back into AVL balance.
fn balance<K, V>(entry: Rc<(K, V)>, left: Link<K, V>, right: Link<K, V>) -> Rc<Node<K, V>> {
    let (hl, hr) = (height(&left), height(&right));
    if hl > hr + 1 {
        let l = left.as_ref().expect("taller side is nonempty");
        if height(&l.left) >= height(&l.right) {
            let right = node(entry, l.right.clone(), right);
            node(l.entry.clone(), l.left.clone(), Some(right))
        } else {
            let lr = l.right.as_ref().expect("taller side is nonempty");
            let left = node(l.entry.clone(), l.left.clone(), lr.left.clone());
            let right = node(entry, lr.right.clone(), right);
            node(lr.entry.clone(), Some(left), Some(right))
        }
    } else if hr > hl + 1 {
        let r = right.as_ref().expect("taller side is nonempty");
        if height(&r.right) >= height(&r.left) {
            let left = node(entry, left, r.left.clone());
            node(r.entry.clone(), Some(left), r.right.clone())
        } else {
            let rl = r.left.as_ref().expect("taller side is nonempty");
            let left = node(entry, left, rl.left.clone());
            let right = node(r.entry.clone(), rl.right.clone(), r.right.clone());
            node(rl.entry.clone(), Some(left), Some(right))
        }
    } else {
        node(entry, left, right)
    }
}

fn insert<K: Ord, V>(link: &Link<K, V>, entry: Rc<(K, V)>) -> Rc<Node<K, V>> {
    let Some(n) = link else {
        return node(entry, None, None);
    };
    match entry.0.cmp(&n.entry.0) {
        Ordering::Less => balance(
            n.entry.clone(),
            Some(insert(&n.left, entry)),
            n.right.clone(),
        ),
        Ordering::Greater => balance(
            n.entry.clone(),
            n.left.clone(),
            Some(insert(&n.right, entry)),
        ),
        Ordering::Equal => node(entry, n.left.clone(), n.right.clone()),
    }
}

/// The tree without `key`, or `None` when `key` is absent.
fn remove<K, V, Q>(link: &Link<K, V>, key: &Q) -> Option<Link<K, V>>
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    let n = link.as_ref()?;
    Some(match key.cmp(n.entry.0.borrow()) {
        Ordering::Less => Some(balance(
            n.entry.clone(),
            remove(&n.left, key)?,
            n.right.clone(),
        )),
        Ordering::Greater => Some(balance(
            n.entry.clone(),
            n.left.clone(),
            remove(&n.right, key)?,
        )),
        Ordering::Equal => match (&n.left, &n.right) {
            (None, only) | (only, None) => only.clone(),
            (left, Some(right)) => {
                let (min, rest) = remove_min(right);
                Some(balance(min, left.clone(), rest))
            }
        },
    })
}

/// The smallest entry under `n`, and the tree without it.
fn remove_min<K, V>(n: &Rc<Node<K, V>>) -> (Rc<(K, V)>, Link<K, V>) {
    match &n.left {
        None => (n.entry.clone(), n.right.clone()),
        Some(left) => {
            let (min, rest) = remove_min(left);
            (min, Some(balance(n.entry.clone(), rest, n.right.clone())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Heights are consistent and balanced, and keys ascend.
    fn check<K: Ord, V>(link: &Link<K, V>) -> u8 {
        let Some(n) = link else { return 0 };
        let (hl, hr) = (check(&n.left), check(&n.right));
        assert!(hl.abs_diff(hr) <= 1, "unbalanced");
        assert_eq!(n.height, 1 + hl.max(hr));
        if let Some(l) = &n.left {
            assert!(l.entry.0 < n.entry.0);
        }
        if let Some(r) = &n.right {
            assert!(r.entry.0 > n.entry.0);
        }
        n.height
    }

    #[test]
    fn matches_a_btreemap_and_leaves_clones_untouched() {
        let mut map: PMap<u32, u32> = PMap::default();
        let mut model: BTreeMap<u32, u32> = BTreeMap::new();
        let mut snapshots = Vec::new();
        // A fixed pseudo-random walk of inserts, overwrites and removes.
        let mut x: u32 = 12345;
        for step in 0..4000u32 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let key = (x >> 8) % 300;
            if x % 3 == 0 {
                map.remove(&key);
                model.remove(&key);
            } else {
                map.insert(key, step);
                model.insert(key, step);
            }
            check(&map.root);
            if step % 500 == 0 {
                snapshots.push((map.clone(), model.clone()));
            }
        }
        let entries = |m: &PMap<u32, u32>| m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>();
        assert_eq!(entries(&map), model.clone().into_iter().collect::<Vec<_>>());
        for key in 0..300 {
            assert_eq!(map.get(&key), model.get(&key));
        }
        for (snap, expected) in &snapshots {
            assert_eq!(
                entries(snap),
                expected.clone().into_iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn removing_a_missing_key_copies_nothing() {
        let mut map: PMap<String, u32> = PMap::default();
        map.insert("a".into(), 1);
        let before = map.clone();
        map.remove("b");
        assert!(Rc::ptr_eq(
            map.root.as_ref().unwrap(),
            before.root.as_ref().unwrap()
        ));
    }
}
