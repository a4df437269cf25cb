"""F-classes by their two-way definition, kept as the reference for the
class record of `fusion`.

This is how fusionkit decided F-classes before every system read them off
one recorded member: R is F-conjugate to P when some morphism maps P onto
R and some morphism maps R onto P, both read off the whole image tables of
Hom(P, S) and Hom(R, S). In a fusion system the second condition follows
from the first, since F holds the inverse of each morphism, so the library
reads a class off the images of one member's morphisms.
"""


def conjugacy_classes(F) -> dict:
    """{id set of each object: its F-class by sorted ids}, every object
    of F tested both ways."""
    images: dict = {}

    def image_sets(ids):
        if ids not in images:
            images[ids] = {frozenset(t)
                           for t in F.hom_to_S_tables(F.subgroup(ids))}
        return images[ids]

    return {
        P.ids: [F.subgroup(ids) for ids in sorted(
            (ids for ids in image_sets(P.ids) if P.ids in image_sets(ids)),
            key=sorted)]
        for P in F.objects()
    }
