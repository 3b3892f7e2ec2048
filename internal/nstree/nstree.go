// Package nstree implements the hierarchical namespace shared by the
// simulated metadata stores: the MDS of the Ceph cluster and the local
// ext4-like filesystem both manage their files with a Tree.
package nstree

import (
	"sort"
	"strings"
	"time"

	"repro/internal/vfsapi"
)

// Node is a file or directory in the namespace.
type Node struct {
	Name     string
	Dir      bool
	Size     int64
	MTime    time.Duration
	Children map[string]*Node // directories only

	// Ino is a unique identifier assigned at creation, stable across
	// renames (used as the cache key by clients).
	Ino uint64
}

// Tree is a rooted namespace with POSIX-style path operations.
type Tree struct {
	root    *Node
	nextIno uint64
}

// New creates a tree with an empty root directory.
func New() *Tree {
	t := &Tree{}
	t.root = &Node{Name: "/", Dir: true, Children: map[string]*Node{}, Ino: t.ino()}
	return t
}

func (t *Tree) ino() uint64 {
	t.nextIno++
	return t.nextIno
}

// Split normalizes a path into its components, ignoring empty segments.
func Split(path string) []string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" && p != "." {
			out = append(out, p)
		}
	}
	return out
}

// Depth returns the number of components in path (lookup cost scales
// with it).
func Depth(path string) int { return len(Split(path)) }

// Lookup resolves path to a node.
func (t *Tree) Lookup(path string) (*Node, error) {
	n := t.root
	// Walk the components as Split yields them, without its slice: every
	// metadata request looks its path up.
	for rest := path; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		if part == "" || part == "." {
			continue
		}
		if !n.Dir {
			return nil, vfsapi.ErrNotDir
		}
		child, ok := n.Children[part]
		if !ok {
			return nil, vfsapi.ErrNotExist
		}
		n = child
	}
	return n, nil
}

// lookupParent resolves the parent directory of path and returns it
// with the final component.
func (t *Tree) lookupParent(path string) (*Node, string, error) {
	parts := Split(path)
	if len(parts) == 0 {
		return nil, "", vfsapi.ErrExist // operating on the root
	}
	n := t.root
	for _, part := range parts[:len(parts)-1] {
		child, ok := n.Children[part]
		if !ok {
			return nil, "", vfsapi.ErrNotExist
		}
		if !child.Dir {
			return nil, "", vfsapi.ErrNotDir
		}
		n = child
	}
	return n, parts[len(parts)-1], nil
}

// Create makes a file node at path, failing if it exists.
func (t *Tree) Create(path string, mtime time.Duration) (*Node, error) {
	parent, name, err := t.lookupParent(path)
	if err != nil {
		return nil, err
	}
	if _, ok := parent.Children[name]; ok {
		return nil, vfsapi.ErrExist
	}
	n := &Node{Name: name, MTime: mtime, Ino: t.ino()}
	parent.Children[name] = n
	return n, nil
}

// Mkdir makes a directory node at path.
func (t *Tree) Mkdir(path string, mtime time.Duration) (*Node, error) {
	parent, name, err := t.lookupParent(path)
	if err != nil {
		return nil, err
	}
	if _, ok := parent.Children[name]; ok {
		return nil, vfsapi.ErrExist
	}
	n := &Node{Name: name, Dir: true, Children: map[string]*Node{}, MTime: mtime, Ino: t.ino()}
	parent.Children[name] = n
	return n, nil
}

// MkdirAll creates path and any missing ancestors.
func (t *Tree) MkdirAll(path string, mtime time.Duration) error {
	n := t.root
	for _, part := range Split(path) {
		child, ok := n.Children[part]
		if !ok {
			child = &Node{Name: part, Dir: true, Children: map[string]*Node{}, MTime: mtime, Ino: t.ino()}
			n.Children[part] = child
		} else if !child.Dir {
			return vfsapi.ErrNotDir
		}
		n = child
	}
	return nil
}

// Unlink removes the file at path.
func (t *Tree) Unlink(path string) (*Node, error) {
	parent, name, err := t.lookupParent(path)
	if err != nil {
		return nil, err
	}
	n, ok := parent.Children[name]
	if !ok {
		return nil, vfsapi.ErrNotExist
	}
	if n.Dir {
		return nil, vfsapi.ErrIsDir
	}
	delete(parent.Children, name)
	return n, nil
}

// Rmdir removes the empty directory at path.
func (t *Tree) Rmdir(path string) error {
	parent, name, err := t.lookupParent(path)
	if err != nil {
		return err
	}
	n, ok := parent.Children[name]
	if !ok {
		return vfsapi.ErrNotExist
	}
	if !n.Dir {
		return vfsapi.ErrNotDir
	}
	if len(n.Children) > 0 {
		return vfsapi.ErrNotEmpty
	}
	delete(parent.Children, name)
	return nil
}

// Rename moves oldPath to newPath, replacing a non-directory target.
func (t *Tree) Rename(oldPath, newPath string, mtime time.Duration) error {
	oldParent, oldName, err := t.lookupParent(oldPath)
	if err != nil {
		return err
	}
	n, ok := oldParent.Children[oldName]
	if !ok {
		return vfsapi.ErrNotExist
	}
	newParent, newName, err := t.lookupParent(newPath)
	if err != nil {
		return err
	}
	if target, ok := newParent.Children[newName]; ok {
		if target.Dir {
			return vfsapi.ErrIsDir
		}
	}
	delete(oldParent.Children, oldName)
	n.Name = newName
	n.MTime = mtime
	newParent.Children[newName] = n
	return nil
}

// Readdir lists the directory at path in sorted order.
func (t *Tree) Readdir(path string) ([]vfsapi.DirEntry, error) {
	n, err := t.Lookup(path)
	if err != nil {
		return nil, err
	}
	if !n.Dir {
		return nil, vfsapi.ErrNotDir
	}
	out := make([]vfsapi.DirEntry, 0, len(n.Children))
	for _, c := range n.Children {
		out = append(out, vfsapi.DirEntry{Name: c.Name, IsDir: c.Dir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Info converts a node to a FileInfo.
func (n *Node) Info() vfsapi.FileInfo {
	return vfsapi.FileInfo{Name: n.Name, Size: n.Size, IsDir: n.Dir, MTime: n.MTime}
}

// Walk visits every node under path in depth-first order.
func (t *Tree) Walk(path string, fn func(p string, n *Node)) error {
	n, err := t.Lookup(path)
	if err != nil {
		return err
	}
	var rec func(prefix string, n *Node)
	rec = func(prefix string, n *Node) {
		fn(prefix, n)
		if !n.Dir {
			return
		}
		names := make([]string, 0, len(n.Children))
		for name := range n.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rec(prefix+"/"+name, n.Children[name])
		}
	}
	base := "/" + strings.Join(Split(path), "/")
	if base == "/" {
		base = ""
	}
	rec(base, n)
	return nil
}
